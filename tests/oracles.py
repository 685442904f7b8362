"""Independent brute-force oracles used only by the tests.

Kept deliberately separate from the library: a rational-to-mpf conversion
for the mpmath readings of the entropy, a Sturm chain for real-root counts, a Schur-Cohn test for roots inside the unit disk, disk arithmetic on
Fractions (the reference for the library's integer disks), a naive
enclosure-product reading of fixed-point counts, schoolbook polynomial
arithmetic on tuples of Fractions, and the textbook quaternion product on
field elements.  These share no code path with the implementations they
check: the fixed-point oracle reads root enclosures, which neither exact
path of the fixed-point tables uses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from mpmath import mp
from mpmath.libmp import from_rational

from endoscope.classify import rational_eigenvalues
from endoscope.enclosures import INSIDE, ON_CIRCLE, OUTSIDE, ComplexEnclosure, isolate_roots
from endoscope.errors import ValidationError
from endoscope.factorq import factor
from endoscope.qpoly import QPoly, binary_power
from endoscope.quaternion import QuatElement

# the eigenvalue oracle gives up rather than isolate roots beyond this
EIGENVALUE_BITS_CAP = 1 << 14


def fraction_to_mpf(q: Fraction):
    """q as an mpf at the working precision, rounded once to nearest."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, mp.prec, "n"))


def sturm_chain(p: QPoly) -> list[QPoly]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: QPoly) -> int:
    """Number of distinct real roots of p, via Sturm's theorem on (-B, B]."""
    p = p.squarefree_part()
    if p.degree < 1:
        return 0
    bound = 1 + max(abs(c) for c in p.coeffs) / abs(p.lc)
    chain = sturm_chain(p)
    lo = _sign_changes([q(Fraction(-bound)) for q in chain])
    hi = _sign_changes([q(Fraction(bound)) for q in chain])
    return lo - hi


def count_real_roots_between(p: QPoly, a: Fraction, b: Fraction) -> int:
    p = p.squarefree_part()
    chain = sturm_chain(p)
    lo = _sign_changes([q(Fraction(a)) for q in chain])
    hi = _sign_changes([q(Fraction(b)) for q in chain])
    return lo - hi


def roots_inside_unit_disk(c: list[int]) -> bool:
    """True iff every root of the integer polynomial c (constant term first,
    c[-1] != 0) lies strictly inside |z| = 1, by the Schur-Cohn recursion:
    with f* = x^n f(1/x), this holds iff |c_0| < |c_n| and it holds for
    (c_n f - c_0 f*) / x, one degree lower (Rouche on |z| = 1, where
    |f*| = |f|)."""
    c = list(c)
    while len(c) > 1:
        low, top = c[0], c[-1]
        if abs(low) >= abs(top):
            return False
        c = [top * c[j] - low * c[-1 - j] for j in range(1, len(c))]
        g = gcd(*c)
        c = [x // g for x in c]
    return True


# ---------------------------------------------------------------------------
# disk arithmetic on Fractions

_SQRT_GUARD = 1 << 64


def sqrt_ub(q: Fraction) -> Fraction:
    """Rational upper bound for sqrt(q), q >= 0."""
    if q < 0:
        raise ValidationError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    s = _SQRT_GUARD
    return Fraction(isqrt(n * d * s * s) + 1, d * s)


def sqrt_lb(q: Fraction) -> Fraction:
    """Rational lower bound for sqrt(q): sqrt_ub(q) less its rounding step."""
    return sqrt_ub(q) - Fraction(1, q.denominator * _SQRT_GUARD) if q > 0 else Fraction(0)


class FractionDisk(ComplexEnclosure):
    """A disk with exact Fraction arithmetic, outward rounded only where asked
    (rounded, pow_rounded).  Operands may be any ComplexEnclosure."""

    __slots__ = ()

    @classmethod
    def of(cls, e: ComplexEnclosure) -> FractionDisk:
        return cls(e.re, e.im, e.radius)

    def contains_point(self, re: Fraction, im: Fraction) -> bool:
        dr = self.re - re
        di = self.im - im
        return dr * dr + di * di <= self.radius * self.radius

    def __add__(self, other):
        if isinstance(other, ComplexEnclosure):
            return FractionDisk(self.re + other.re, self.im + other.im, self.radius + other.radius)
        q = Fraction(other)
        return FractionDisk(self.re + q, self.im, self.radius)

    def __neg__(self):
        return FractionDisk(-self.re, -self.im, self.radius)

    def __sub__(self, other):
        if isinstance(other, ComplexEnclosure):
            return self + (-FractionDisk.of(other))
        return self + (-Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if isinstance(other, ComplexEnclosure):
            re = self.re * other.re - self.im * other.im
            im = self.re * other.im + self.im * other.re
            rad = (
                sqrt_ub(self.abs_sq_mid()) * other.radius
                + sqrt_ub(other.abs_sq_mid()) * self.radius
                + self.radius * other.radius
            )
            return FractionDisk(re, im, rad)
        q = Fraction(other)
        return FractionDisk(self.re * q, self.im * q, self.radius * abs(q))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return binary_power(self, n, FractionDisk(1, 0, 0), FractionDisk.__mul__)

    def invert(self) -> FractionDisk:
        """Exact enclosure of 1/z; requires 0 outside the disk."""
        den = self.abs_sq_mid() - self.radius * self.radius
        if den <= 0 or sqrt_lb(self.abs_sq_mid()) <= self.radius:
            raise ValidationError("cannot invert an enclosure that may contain zero")
        return FractionDisk(self.re / den, -self.im / den, self.radius / den)

    def rounded(self, bits: int) -> FractionDisk:
        """Sound coarsening: midpoints snapped to denominator 2^bits, radius
        rounded up and padded by the snap distance."""
        scale = 1 << bits
        re = Fraction(round(self.re * scale), scale)
        im = Fraction(round(self.im * scale), scale)
        num, den = self.radius.numerator, self.radius.denominator
        rad = Fraction((num * scale + den - 1) // den + 1, scale)
        return FractionDisk(re, im, rad)


def reference_side(e: ComplexEnclosure) -> int:
    """The disk's side of |z| = 1 by rational square-root bounds on |mid|:
    OUTSIDE when sqrt_lb(|mid|^2) - r > 1, INSIDE when sqrt_ub(|mid|^2) + r < 1,
    else ON_CIRCLE."""
    mid_sq, r = e.abs_sq_mid(), e.radius
    if sqrt_lb(mid_sq) - r > 1:
        return OUTSIDE
    if sqrt_ub(mid_sq) + r < 1:
        return INSIDE
    return ON_CIRCLE


def pow_rounded(base: FractionDisk, n: int, bits: int) -> FractionDisk:
    """Enclosure of base^n by repeated squaring, rounded to bits after every step."""
    return binary_power(base, n, FractionDisk(1, 0, 0), lambda a, b: (a * b).rounded(bits))


def reference_disk_product(enclosures, bits: int, m: int = 1, fold=None) -> FractionDisk:
    """enclosures.disk_product in Fraction disk arithmetic: each product of
    the enclosures rounded to bits, the m-th power by pow_rounded, and the
    fold as disk + fold / disk."""
    disk = FractionDisk(1, 0, 0)
    for e in enclosures:
        disk = (disk * e).rounded(bits)
    disk = pow_rounded(disk, m, bits)
    return disk if fold is None else disk + disk.invert() * fold


# ---------------------------------------------------------------------------
# fixed-point counts read off root enclosures


def eigenvalue_counts(source, ns, bits: int = 128) -> list[int]:
    """prod (1 - mu^n) over a multiset of algebraic numbers mu, for each n in ns.

    source is a spec, whose multiset is rational_eigenvalues(spec, bits), the
    roots of chi with the multiplicities that make fix(f^n); or a QPoly,
    whose multiset is its roots with their multiplicities.  The product is
    taken in disk arithmetic; while its disk holds more than one integer,
    bits doubles and the roots are isolated again.  A disk that never pins
    one integer fails the caller instead of being rounded.
    """
    roots, out = _root_multiset(source, bits), []
    for n in ns:
        while (value := _pinned_product(roots, n, bits)) is None:
            bits *= 2
            if bits > EIGENVALUE_BITS_CAP:
                raise AssertionError(f"the eigenvalue product at n={n} pins no integer")
            roots = _root_multiset(source, bits)
        out.append(value)
    return out


def _root_multiset(source, bits: int) -> list[tuple[list[ComplexEnclosure], int]]:
    """(enclosures of the roots of one factor, its multiplicity) per factor."""
    if isinstance(source, QPoly):
        return [(isolate_roots(q, bits), mult) for q, mult in factor(source)]
    ev = rational_eigenvalues(source, bits)
    return [([e for e, _ in ev.statuses], ev.mult)]


def _pinned_product(roots, n: int, bits: int) -> int | None:
    """The one integer in the disk of prod (1 - mu^n), or None."""
    acc = FractionDisk(1, 0, 0)
    for enclosures, mult in roots:
        for mu in enclosures:
            power = FractionDisk.of(mu)
            for _ in range(n - 1):
                power = (power * mu).rounded(bits)
            for _ in range(mult):
                acc = (acc * (1 - power)).rounded(bits)
    value = round(acc.re)
    return value if abs(acc.re - value) + acc.radius < Fraction(1, 2) else None


def quaternion_product(x, y):
    """x y in the quaternion algebra of x and y, by the textbook formula on
    the NFElement coordinates (i^2 = alpha, j^2 = beta, ij = -ji = k): a
    reduction after every field product, no integer norm form."""
    alg = x.algebra
    alpha, beta = alg.alpha, alg.beta
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return QuatElement(
        alg,
        a1 * a2 + alpha * (b1 * b2) + beta * (c1 * c2) - alpha * (beta * (d1 * d2)),
        a1 * b2 + b1 * a2 + beta * (d1 * c2 - c1 * d2),
        a1 * c2 + c1 * a2 + alpha * (b1 * d2 - d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
    )


# ---------------------------------------------------------------------------
# Fraction-tuple polynomial arithmetic: the plain schoolbook algorithms on
# tuples of Fractions, constant term first and without trailing zeros, as a
# reference for the integer-backed QPoly


def ref_trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_neg(a) -> tuple:
    return tuple(-c for c in a)


def ref_sub(a, b) -> tuple:
    return ref_add(a, ref_neg(b))


def ref_scale(a, c) -> tuple:
    return ref_trim(x * c for x in a)


def ref_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b) -> tuple[tuple, tuple]:
    rem, db = list(a), len(b) - 1
    if len(a) - 1 < db:
        return (), tuple(a)
    quot = [Fraction(0)] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = rem[db + k] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[j + k] -= c * y
    return ref_trim(quot), ref_trim(rem[:db])


def ref_monic(a) -> tuple:
    return ref_scale(a, 1 / a[-1]) if a else ()


def ref_gcd(a, b) -> tuple:
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_xgcd(a, b) -> tuple[tuple, tuple, tuple]:
    r0, r1, s0, s1, t0, t1 = a, b, (Fraction(1),), (), (), (Fraction(1),)
    while r1:
        q, r = ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(s0, ref_mul(q, s1))
        t0, t1 = t1, ref_sub(t0, ref_mul(q, t1))
    if not r0:
        return r0, s0, t0
    inv = 1 / r0[-1]
    return ref_scale(r0, inv), ref_scale(s0, inv), ref_scale(t0, inv)


def ref_derivative(a) -> tuple:
    return ref_trim(i * c for i, c in enumerate(a) if i)


def ref_pow_mod(a, n: int, m) -> tuple:
    out = ref_divmod((Fraction(1),), m)[1]
    for _ in range(n):
        out = ref_divmod(ref_mul(out, a), m)[1]
    return out


def ref_compose_mod(p, inner, m) -> tuple:
    acc = ()
    for c in reversed(p):
        acc = ref_divmod(ref_add(ref_mul(acc, inner), (c,)), m)[1]
    return acc


def ref_resultant(a, b) -> Fraction:
    """Determinant of the Sylvester matrix by Gaussian elimination over Q."""
    n, m = len(a) - 1, len(b) - 1
    if n < 0 or m < 0:
        return Fraction(0)
    size = n + m
    if size == 0:
        return Fraction(1)
    rows = [[Fraction(0)] * k + list(a[::-1]) + [Fraction(0)] * (m - 1 - k) for k in range(m)]
    rows += [[Fraction(0)] * k + list(b[::-1]) + [Fraction(0)] * (n - 1 - k) for k in range(n)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] / rows[col][col]
            for c in range(col, size):
                rows[r][c] -= f * rows[col][c]
    return det


def ref_power_sums(p, count: int) -> list:
    """Newton's identities on the monic p, over the rationals."""
    c, n = ref_monic(p), len(p) - 1
    s = [Fraction(n)]
    for k in range(1, count + 1):
        acc = k * c[n - k] if k <= n else Fraction(0)
        for i in range(1, min(k - 1, n) + 1):
            acc += c[n - i] * s[k - i]
        s.append(-acc)
    return s
