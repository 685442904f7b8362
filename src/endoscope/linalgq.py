"""Small exact linear algebra helpers: integer Bareiss determinants,
Fraction determinants and characteristic polynomials by interpolation.

Matrices are lists of row lists.  Sizes here stay tiny (degree of a number
field, size of a Sylvester block), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def det_int_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss fraction-free)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pk - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def det_fraction(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of a Fraction matrix, via row-wise denominator clearing."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = 1
    rows: list[list[int]] = []
    for row in matrix:
        den = 1
        for c in row:
            c = Fraction(c)
            den = den * c.denominator // gcd(den, c.denominator)
        rows.append([int(Fraction(c) * den) for c in row])
        scale *= den
    return Fraction(det_int_bareiss(rows), scale)


def charpoly(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients (constant first) of det(x*I - M), monic of degree n.

    Interpolates det(k*I - M) at k = 0..n; each determinant is exact.
    """
    n = len(matrix)
    if n == 0:
        return [Fraction(1)]
    points = []
    for k in range(n + 1):
        mk = [[(Fraction(k) if i == j else Fraction(0)) - matrix[i][j] for j in range(n)] for i in range(n)]
        points.append((Fraction(k), det_fraction(mk)))
    return _interpolate(points)


def _interpolate(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Lagrange interpolation; returns dense coefficients, constant first."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - xj), built incrementally
        num = [Fraction(1)]
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            den *= xi - xj
            new = [Fraction(0)] * (len(num) + 1)
            for t, c in enumerate(num):
                new[t] -= c * xj
                new[t + 1] += c
            num = new
        w = yi / den
        for t, c in enumerate(num):
            coeffs[t] += w * c
    return coeffs


def solve_fraction(matrix, rhs):
    """Solve M x = rhs exactly; raises ZeroDivisionError on singular input."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("singular system")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [c * inv for c in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]
