"""Quaternion algebras B = (alpha, beta / F) over totally real number fields.

Basis 1, i, j, k with i^2 = alpha, j^2 = beta, ij = k = -ji.  Elements carry
exact base-field coordinates; reduced trace, norm and characteristic
polynomials are exact, the last one over Q built from Newton power sums.
Definiteness reads the exact signs of alpha and beta at each real root of
the base field's minimal polynomial (Sturm sequences, see
qpoly.signs_at_real_roots), the roots in ascending order, and reports them
with the kind in the named tuple DefinitenessReport.

Division-ness is not decided in general.  The module offers two exact
answers: totally definite algebras are division algebras, and over base
field Q the Hilbert symbols decide.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ValidationError
from .numfield import NFElement, NumberField, _element, is_totally_real
from .qpoly import ONE, QPoly, _convolve, _divmod_z, _poly, _prime_factors, binary_power, from_power_sums
from .qpoly import over_common_denominator, signs_at_real_roots

TOTALLY_DEFINITE = "TotallyDefinite"
TOTALLY_INDEFINITE = "TotallyIndefinite"
MIXED = "Mixed"


# kind: TOTALLY_DEFINITE, TOTALLY_INDEFINITE or MIXED; per_embedding_signs: a
# tuple of the int pairs (sign alpha, sign beta), one per real place in ascending order
DefinitenessReport = namedtuple("DefinitenessReport", "kind per_embedding_signs")


class QuatAlgebra:
    def __init__(self, base: NumberField, alpha, beta):
        self.base = base
        self.alpha = base.element(alpha)
        self.beta = base.element(beta)
        if self.alpha.is_zero or self.beta.is_zero:
            raise ValidationError("alpha and beta must be nonzero")
        if not is_totally_real(base):
            raise ValidationError("quaternion base field must be totally real")
        # the coefficients 1, -alpha, -beta, alpha beta of the reduced norm
        # form, as integer polynomials over one denominator
        alpha_beta = (self.alpha * self.beta).poly
        self._norm_form = over_common_denominator((ONE, -self.alpha.poly, -self.beta.poly, alpha_beta))
        self._definiteness: DefinitenessReport | None = None

    def __repr__(self):
        return f"QuatAlgebra(alpha={self.alpha.poly!r}, beta={self.beta.poly!r} over {self.base!r})"

    def __eq__(self, other):
        return (
            isinstance(other, QuatAlgebra)
            and self.base == other.base
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.base, self.alpha, self.beta))

    def element(self, a=0, b=0, c=0, d=0) -> QuatElement:
        return QuatElement(self, self.base.element(a), self.base.element(b), self.base.element(c), self.base.element(d))

    def zero(self) -> QuatElement:
        return self.element()

    def one(self) -> QuatElement:
        return self.element(1)

    def gen_i(self) -> QuatElement:
        return self.element(0, 1)

    def gen_j(self) -> QuatElement:
        return self.element(0, 0, 1)

    def gen_k(self) -> QuatElement:
        return self.element(0, 0, 0, 1)


class QuatElement(namedtuple("QuatElement", "algebra a b c d")):
    """a + b i + c j + d k in the algebra, with coordinates a, b, c, d in its base field."""

    __slots__ = ()

    def __repr__(self):
        return f"QuatElement(a={self.a.poly!r}, b={self.b.poly!r}, c={self.c.poly!r}, d={self.d.poly!r})"

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero and self.c.is_zero and self.d.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.element(other)
        return isinstance(other, QuatElement) and tuple.__eq__(self, other)

    def __ne__(self, other):  # not the tuple's field-wise !=
        return not self == other

    __hash__ = tuple.__hash__

    def _coerce(self, other) -> QuatElement:
        if isinstance(other, QuatElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValidationError("elements of different quaternion algebras")
            return other
        if isinstance(other, (int, Fraction, NFElement)):
            return self.algebra.element(other)
        raise ValidationError(f"cannot coerce {other!r} into the algebra")

    def __add__(self, other):
        o = self._coerce(other)
        return QuatElement(self.algebra, self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return QuatElement(self.algebra, -self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return QuatElement(self.algebra, self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """(a1 + b1 i + c1 j + d1 k)(a2 + b2 i + c2 j + d2 k) on integer
        coordinates: each operand over one denominator, the 16 coordinate
        products by convolution, weighted by the integer norm form
        1, -alpha, -beta, alpha beta over its denominator, and each coordinate
        reduced once modulo the numerator of the base minimal polynomial."""
        o = self._coerce(other)
        alg = self.algebra
        (a1, b1, c1, d1), s = _integer_coords(self)
        (a2, b2, c2, d2), t = _integer_coords(o)
        (_, na, nb, nab), den = alg._norm_form  # den times 1, -alpha, -beta, alpha beta
        mul = _convolve
        parts = (
            _linear(
                (den, mul(a1, a2)), (-1, mul(na, mul(b1, b2))), (-1, mul(nb, mul(c1, c2))), (-1, mul(nab, mul(d1, d2)))
            ),
            _linear((den, mul(a1, b2)), (den, mul(b1, a2)), (1, mul(nb, _linear((1, mul(c1, d2)), (-1, mul(d1, c2)))))),
            _linear((den, mul(a1, c2)), (den, mul(c1, a2)), (1, mul(na, _linear((1, mul(d1, b2)), (-1, mul(b1, d2)))))),
            _linear((den, mul(a1, d2)), (den, mul(d1, a2)), (den, mul(b1, c2)), (-den, mul(c1, b2))),
        )
        base, m, st = alg.base, alg.base.minpoly.num, s * t * den
        out = []
        for part in parts:
            _, r, scale = _divmod_z(part, m)
            out.append(_element(base, _poly(r, scale * st)))
        return QuatElement(alg, *out)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative quaternion power")
        return binary_power(self, n, self.algebra.one(), QuatElement.__mul__)

    def conjugate(self) -> QuatElement:
        return QuatElement(self.algebra, self.a, -self.b, -self.c, -self.d)

    def reduced_trace(self) -> NFElement:
        return self.a + self.a

    def reduced_norm(self) -> NFElement:
        """a^2 - alpha b^2 - beta c^2 + alpha beta d^2, by reduced_norm_int on
        the coordinates over their common denominator."""
        r, t = reduced_norm_int(self.algebra, *_integer_coords(self))
        return NFElement(self.algebra.base, _poly(r, t))

    def reduced_charpoly_q(self) -> QPoly:
        """Monic degree-2e rational polynomial with roots sigma(t1), sigma(t2).

        t1, t2 are the roots of the reduced quadratic x^2 - Trd*x + Nrd, so it
        is N_{F/Q}(x^2 - Trd*x + Nrd).  Its k-th power sum is Tr_{F/Q}(P_k)
        with P_k = t1^k + t2^k, from P_0 = 2, P_1 = Trd and
        P_k = Trd*P_{k-1} - Nrd*P_{k-2}.
        """
        e = self.algebra.base.degree
        trd = self.reduced_trace()
        nrd = self.reduced_norm()
        prev, cur = self.algebra.base.element(2), trd
        sums = [2 * e, cur.trace_q()]
        for _ in range(2, 2 * e + 1):
            prev, cur = cur, trd * cur - nrd * prev
            sums.append(cur.trace_q())
        return from_power_sums(sums, 2 * e)


def reduced_norm_int(algebra: QuatAlgebra, coords, s: int) -> tuple[list[int], int]:
    """(r, t) with Nrd(x) = r / t, for the element x whose coordinates on
    1, i, j, k are the integer polynomials coords[0..3] over s > 0.

    r is a^2 - alpha b^2 - beta c^2 + alpha beta d^2 summed in Z[x] over one
    denominator and reduced once modulo the numerator of the base minimal
    polynomial; it may keep trailing zeros and a factor in common with t.
    """
    forms, den = algebra._norm_form
    total = []
    for x, form in zip(coords, forms):
        if any(x):
            term = _convolve(form, _convolve(x, x))
            total += [0] * (len(term) - len(total))
            for i, c in enumerate(term):
                total[i] += c
    _, r, scale = _divmod_z(total, algebra.base.minpoly.num)
    return r, scale * den * s * s


def _integer_coords(x: QuatElement) -> tuple[list[list[int]], int]:
    """The coordinates of x on 1, i, j, k as integer polynomials over one denominator."""
    return over_common_denominator((x.a.poly, x.b.poly, x.c.poly, x.d.poly))


def _linear(*terms) -> list[int]:
    """The sum of k p over the pairs (k, p) of an int k and an integer polynomial p."""
    total = []
    for k, p in terms:
        total += [0] * (len(p) - len(total))
        for i, c in enumerate(p):
            total[i] += k * c
    return total


# ---------------------------------------------------------------------------
# definiteness


def definiteness(algebra: QuatAlgebra) -> DefinitenessReport:
    """Classify by signs of (sigma(alpha), sigma(beta)) at every real place,
    the places in ascending order of the root of the base minimal polynomial.
    The report is kept on the algebra."""
    if algebra._definiteness is None:
        m = algebra.base.minpoly
        signs = tuple(signs_at_real_roots(m, algebra.alpha.poly, algebra.beta.poly))
        if all(sa < 0 and sb < 0 for sa, sb in signs):
            kind = TOTALLY_DEFINITE
        elif all(sa > 0 or sb > 0 for sa, sb in signs):
            kind = TOTALLY_INDEFINITE
        else:
            kind = MIXED
        algebra._definiteness = DefinitenessReport(kind, signs)
    return algebra._definiteness


# ---------------------------------------------------------------------------
# Hilbert symbols over Q (exact local solvability of a x^2 + b y^2 = z^2)


def _split_val(x: Fraction, p: int) -> tuple[int, Fraction]:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a: Fraction, b: Fraction, place: int | None) -> int:
    """(a, b)_v for v a prime or None for the real place."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValidationError("Hilbert symbol needs nonzero entries")
    if place is None:
        return -1 if a < 0 and b < 0 else 1
    p = place
    va, ua = _split_val(a, p)
    vb, ub = _split_val(b, p)
    if p == 2:
        def eps(u: Fraction) -> int:
            n = (u.numerator * pow(u.denominator, -1, 8)) % 8
            return ((n - 1) // 2) % 2

        def omega(u: Fraction) -> int:
            n = (u.numerator * pow(u.denominator, -1, 8)) % 8
            return ((n * n - 1) // 8) % 2

        exponent = eps(ua) * eps(ub) + va * omega(ub) + vb * omega(ua)
        return -1 if exponent % 2 else 1
    na = (ua.numerator * pow(ua.denominator, -1, p)) % p
    nb = (ub.numerator * pow(ub.denominator, -1, p)) % p
    sym = 1
    if (va * vb) % 2 and (p - 1) // 2 % 2:
        sym = -sym
    if vb % 2:
        sym *= _legendre(na, p)
    if va % 2:
        sym *= _legendre(nb, p)
    return sym


def _rational_places(a: Fraction, b: Fraction) -> list[int | None]:
    primes = {2}.union(*(_prime_factors(n) for x in (a, b) for n in (abs(x.numerator), x.denominator)))
    return sorted(primes) + [None]


def rational_quaternion_is_division(a: Fraction, b: Fraction) -> bool:
    """Exact decision for (a, b / Q): division iff some local symbol is -1."""
    symbols = [hilbert_symbol(a, b, v) for v in _rational_places(a, b)]
    if len([s for s in symbols if s == -1]) % 2:
        raise ValidationError("Hilbert symbol product formula violated (bad input?)")
    return any(s == -1 for s in symbols)


def is_division(algebra: QuatAlgebra) -> bool | None:
    """True / False when certain: totally definite, or over Q; None otherwise."""
    report = definiteness(algebra)
    if report.kind == TOTALLY_DEFINITE:
        return True
    if algebra.base.degree == 1:
        root = Fraction(-algebra.base.minpoly[0])
        return rational_quaternion_is_division(
            algebra.alpha.poly(root), algebra.beta.poly(root)
        )
    return None
