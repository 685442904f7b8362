"""Algebraic numbers as (irreducible minimal polynomial, certified enclosure)
pairs, with exact products of roots of one irreducible polynomial (classify's
gamma, from the structure element's minimal polynomial or from q).

A product of the m-th powers of k roots of p is a root of the exterior power
prod over k-subsets S of (x - prod_S a^m), whose j-th power sum e_k(a^(mj))
comes from Newton power sums (Bostan-Flajolet-Salvy-Schost 2006), built once
root_product has checked its degree against factorq's cap.  The factor holding
the true product is the one whose certified root enclosure meets the target
disk (enclosures.disk_product), as distinct irreducible factors share no roots.
_select_root is the one isolate-meet-double loop: root_product passes it the
factors it made, refined the number's minpoly with its enclosure as the target.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from . import factorq
from .enclosures import MAX_BITS, ComplexEnclosure, _isolate, disk_product
from .errors import CrossCheckError, PrecisionExhausted, ValidationError
from .qpoly import QPoly, X, _exact, from_power_sums, newton_coefficients, power_sums


class AlgebraicNumber(namedtuple("AlgebraicNumber", "minpoly enclosure bits", defaults=(128,))):
    """One root of an irreducible monic rational polynomial, pinned by a disk.

    minpoly: the QPoly; enclosure: a ComplexEnclosure holding this root and
    no other; bits: the precision it was certified at, 128 by default."""

    __slots__ = ()

    def __repr__(self):
        return f"AlgebraicNumber({self.minpoly!r} @ {self.enclosure!r})"

    @property
    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValidationError("algebraic number is not rational")
        return -self.minpoly[0]

    def refined(self, bits: int) -> AlgebraicNumber:
        """Same number with a smaller certified enclosure."""
        if bits <= self.bits:
            return self
        _, enclosure, bits = _select_root([self.minpoly], lambda _: self.enclosure, bits)
        return AlgebraicNumber(self.minpoly, enclosure, bits)


def from_rational(q) -> AlgebraicNumber:
    q = Fraction(q)
    return AlgebraicNumber(X - QPoly((q,)), ComplexEnclosure(q, 0, 0), MAX_BITS)


def _select_root(candidates: list[QPoly], disk_of, bits: int) -> tuple[QPoly, ComplexEnclosure, int]:
    """Pick the unique (candidate, root enclosure) meeting the target disk.

    The candidates are distinct irreducible polynomials, and the target is
    known to be a root of one of them.  disk_of(bits) must return a certified
    enclosure of the target value at the given precision.  A candidate none of
    whose enclosures meets the disk does not have the target as a root, so
    only the candidates with a hit are isolated again at the next precision.
    """
    while bits <= MAX_BITS:
        disk = disk_of(bits)
        hits = [(q, e) for q in candidates for e in _isolate(q, bits) if e.meets(disk)]
        if len(hits) == 1:
            return hits[0][0], hits[0][1], bits
        if not hits:
            raise CrossCheckError("target value escaped every certified enclosure")
        candidates = [q for q in candidates if any(h is q for h, _ in hits)]
        bits *= 2
    raise PrecisionExhausted("could not separate candidate roots")


def _disk_of(nums: list[AlgebraicNumber], m: int = 1, fold=None):
    """disk_of for _select_root: the enclosure of (prod nums)^m, or of w + fold/w
    for that product w, after refining nums in place to the given precision."""

    def disk_of(bits: int) -> ComplexEnclosure:
        nums[:] = [a.refined(bits) for a in nums]
        return disk_product([a.enclosure for a in nums], bits, m, fold)

    return disk_of


def _exterior_sums(p: QPoly, k: int, m: int, count: int) -> list:
    """[P_0, ..., P_count] with P_j = e_k(a^(mj)) over the roots a of p: the
    power sums of the roots of exterior_power(p, k, m)."""
    s = power_sums(p, k * m * count)
    sums = [comb(p.degree, k)]
    for j in range(1, count + 1):
        # s_0 and the power sums of the a^(mj); e_k is (-1)^k times the
        # constant term of the polynomial with these power sums
        sums.append((-1) ** k * newton_coefficients(s[: k * m * j + 1 : m * j], k)[0])
    return sums


def exterior_power(p: QPoly, k: int, m: int = 1) -> QPoly:
    """Monic prod over the k-subsets S of the roots of p of (x - prod_{a in S} a^m)."""
    count = comb(p.degree, k)
    return from_power_sums(_exterior_sums(p, k, m, count), count)


def root_product(p: QPoly, roots: list[ComplexEnclosure], m: int = 1) -> AlgebraicNumber:
    """prod a^m over the roots a of the irreducible p pinned by the enclosures.

    For k enclosures it is a root of exterior_power(p, k, m).  When 2k = deg p,
    subsets pair with their complements, whose products r and N/r multiply to
    N = ((-1)^n p(0))^m.  So the polynomial T of half the degree with the roots
    r + N/r is factored instead: its i-th power sum is the sum over 2l <= i of
    C(i, l) N^l P_(i-2l), with P the exterior power's sums and P_0 = deg T.
    The product is then a root of x^(deg t) t(x + N/x), t the factor of T.
    The degree that factor receives first is checked against its cap before
    any power sum is taken.
    """
    n, k = p.degree, len(roots)
    factorq._check_degree(comb(n, k) // 2 if 2 * k == n else comb(n, k))
    nums = [AlgebraicNumber(p, e) for e in roots]
    if 2 * k != n:
        q, e, bits = _select_root([r for r, _ in factorq.factor(exterior_power(p, k, m))], _disk_of(nums, m), 128)
        return AlgebraicNumber(q, e, bits)

    big_n = _exact(((-1) ** n * p.monic()[0]) ** m)
    half = comb(n, k) // 2
    sums = _exterior_sums(p, k, m, half)
    sums[0] = half
    folded = [sum(comb(i, l) * big_n**l * sums[i - 2 * l] for l in range(i // 2 + 1)) for i in range(half + 1)]
    t_factors = [r for r, _ in factorq.factor(from_power_sums(folded, half))]
    t, _, bits = _select_root(t_factors, _disk_of(nums, m, big_n), 128)
    unfolded = QPoly()
    for i in range(t.degree, -1, -1):
        unfolded = unfolded * (X * X + big_n) + X ** (t.degree - i) * t[i]
    q, e, bits = _select_root([r for r, _ in factorq.factor(unfolded)], _disk_of(nums, m), bits)
    return AlgebraicNumber(q, e, bits)
