"""Certified complex enclosures for polynomial roots.

Floating seeds come from mpmath's simultaneous-iteration root finder, run on
q(2^k y), q = p(x + c) recentred at the roots' centroid, whose roots all lie
in the unit disk (k from a root bound, see root_bound_exponent), and moved
back; the certificate is exact.  For seeds z_1..z_n and Weierstrass corrections

    W_i = p(z_i) / (lc * prod_{j != i} (z_i - z_j)),

every root of p lies in the union of the disks D(z_i, n*|W_i|), and a
connected component made of k disks contains exactly k roots (write
p = lc*(prod(x - z_i) + sum_i W_i prod_{j != i}(x - z_j)) and bound the sum
term outside the union; a homotopy in the W_i keeps root counts per
component).  So once the disks are pairwise disjoint, each contains exactly
one root; everything is checked with Fraction arithmetic and outward-rounded
square roots, so no floating-point step is trusted.

Real roots are recognized by an exact sign change across the disk's real
diameter and reported with exact zero imaginary part; non-real enclosures
are mirrored into exact conjugate pairs.

Which roots lie on the unit circle is counted exactly (Sturm counts on the
trace polynomial, see circle_root_count); enclosures only say which roots
those are.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from mpmath import mp, mpf, polyroots

from .errors import (
    NonSquarefreeInput,
    PrecisionExhausted,
    ValidationError,
)
from .qpoly import QPoly, X, _sign_at, binary_power, count_real_roots, root_bound_exponent, trace_polynomial

MAX_BITS = 4096

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


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)  # mpmath may hand back gmpy2 integers
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def fraction_to_mpf(q: Fraction):
    return mpf(q.numerator) / mpf(q.denominator)


class ComplexEnclosure:
    """Closed disk |z - (re + i*im)| <= radius holding exactly one root."""

    __slots__ = ("re", "im", "radius")

    def __init__(self, re, im, radius):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))
        object.__setattr__(self, "radius", Fraction(radius))
        if self.radius < 0:
            raise ValidationError("negative enclosure radius")

    def __setattr__(self, name, value):
        raise AttributeError("ComplexEnclosure is immutable")

    def __repr__(self):
        return f"ComplexEnclosure({float(self.re):.12g}{float(self.im):+.12g}j, r<{float(self.radius):.3g})"

    def __eq__(self, other):
        return (
            isinstance(other, ComplexEnclosure)
            and self.re == other.re
            and self.im == other.im
            and self.radius == other.radius
        )

    def __hash__(self):
        return hash((self.re, self.im, self.radius))

    # -- geometry ------------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def abs_sq_mid(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def abs_ub(self) -> Fraction:
        return sqrt_ub(self.abs_sq_mid()) + self.radius

    def abs_lb(self) -> Fraction:
        v = sqrt_lb(self.abs_sq_mid()) - self.radius
        return v if v > 0 else Fraction(0)

    def meets(self, other: ComplexEnclosure) -> bool:
        """True unless the two disks are provably disjoint."""
        dr = self.re - other.re
        di = self.im - other.im
        s = self.radius + other.radius
        return dr * dr + di * di <= s * s

    def contains_point(self, re: Fraction, im: Fraction) -> bool:
        dr = self.re - re
        di = self.im - im
        return dr * dr + di * di <= self.radius * self.radius

    def conjugate(self) -> ComplexEnclosure:
        return ComplexEnclosure(self.re, -self.im, self.radius)

    # -- arithmetic (outward rounded, hence sound) -----------------------------

    def __add__(self, other):
        if isinstance(other, ComplexEnclosure):
            return ComplexEnclosure(self.re + other.re, self.im + other.im, self.radius + other.radius)
        q = Fraction(other)
        return ComplexEnclosure(self.re + q, self.im, self.radius)

    def __neg__(self):
        return ComplexEnclosure(-self.re, -self.im, self.radius)

    def __sub__(self, other):
        if isinstance(other, ComplexEnclosure):
            return self + (-other)
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
            return ComplexEnclosure(re, im, rad)
        q = Fraction(other)
        return ComplexEnclosure(self.re * q, self.im * q, self.radius * abs(q))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return binary_power(self, n, ComplexEnclosure(1, 0, 0), ComplexEnclosure.__mul__)

    def invert(self) -> ComplexEnclosure:
        """Exact enclosure of 1/z; requires 0 outside the disk."""
        den = self.abs_sq_mid() - self.radius * self.radius
        if den <= 0 or sqrt_lb(self.abs_sq_mid()) <= self.radius:
            raise ValidationError("cannot invert an enclosure that may contain zero")
        return ComplexEnclosure(self.re / den, -self.im / den, self.radius / den)

    def rounded(self, bits: int) -> ComplexEnclosure:
        """Sound coarsening: midpoints snapped to denominator 2^bits, radius
        rounded up and padded by the snap distance.

        Long products would otherwise accumulate dyadic numerators of
        unbounded size; rounding after each step keeps every Fraction near
        the working precision while the enclosure stays an enclosure.
        """
        scale = 1 << bits
        re = Fraction(round(self.re * scale), scale)
        im = Fraction(round(self.im * scale), scale)
        num, den = self.radius.numerator, self.radius.denominator
        rad = Fraction((num * scale + den - 1) // den + 1, scale)
        return ComplexEnclosure(re, im, rad)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "re": _decimal(self.re, 36),
            "im": _decimal(self.im, 36),
            "radius": _decimal(self.radius, 12, round_up=True),
        }


def pow_rounded(base: ComplexEnclosure, n: int, bits: int) -> ComplexEnclosure:
    """Enclosure of base^n by repeated squaring, rounded to bits after every step."""
    return binary_power(base, n, ComplexEnclosure(1, 0, 0), lambda a, b: (a * b).rounded(bits))


def _decimal(q: Fraction, digits: int, round_up: bool = False) -> str:
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    scaled = n * 10**digits
    whole, rem = divmod(scaled, d)
    if round_up and rem:
        whole += 1
    s = str(whole).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


# ---------------------------------------------------------------------------
# root isolation


def _ceval(ints: list[int], re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(ints):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


def _seeds(ints: list[int], wp: int):
    """Untrusted root approximations, found on q(2^k y) for q = p(x + c), c
    the integer part of the roots' centroid -a_(n-1) / (n a_n): a tight
    cluster far from 0 is seen at its own scale, and the roots of q(2^k y)
    are below 1, so the iteration's absolute stopping rule means the same
    for large roots as for small ones.  Both moves are exact."""
    n = len(ints) - 1
    c = -ints[n - 1] // (n * ints[n])
    shifted = QPoly(ints).compose(X + c).num if c else ints  # Taylor shift by Horner's rule
    k = root_bound_exponent(shifted)
    with mp.workprec(wp + 30):
        coeffs = [mp.ldexp(mpf(shifted[j]), k * (j - n)) for j in range(n, -1, -1)]
        try:
            roots = polyroots(coeffs, maxsteps=400, extraprec=64)
        except Exception:
            return None
    return [(mpf_to_fraction(mp.ldexp(r.real, k)) + c, mpf_to_fraction(mp.ldexp(r.imag, k))) for r in roots]


def isolate_roots(p: QPoly, precision_bits: int = 128) -> list[ComplexEnclosure]:
    """Certified pairwise-disjoint enclosures of all roots of a squarefree p.

    Every enclosure holds exactly one root; real roots carry an exact zero
    imaginary midpoint certified by a sign change of p across the real
    diameter; non-real enclosures come in exact conjugate pairs.  Radii
    shrink when precision_bits grows.
    """
    if precision_bits < 64:
        raise ValidationError("precision_bits must be at least 64")
    if p.is_zero:
        raise ValidationError("cannot isolate roots of the zero polynomial")
    if p.degree >= 1 and p.gcd(p.derivative()).degree > 0:
        raise NonSquarefreeInput("input polynomial has repeated roots")
    if p.degree <= 0:
        return []
    _, ints = p.clear_denominators()
    n = len(ints) - 1
    if n == 1:
        root = Fraction(-ints[0], ints[1])
        return [ComplexEnclosure(root, 0, 0)]

    target = Fraction(1, 1 << (precision_bits - 4))
    wp = precision_bits + 32 + 8 * n
    cap = max(8 * precision_bits, MAX_BITS) + 8 * n
    while wp <= cap:
        got = _attempt(ints, n, wp, target)
        if got is not None:
            return got
        wp *= 2
    raise PrecisionExhausted(f"could not separate roots of {p!r} within {cap} bits")


def _attempt(ints, n, wp, target):
    seeds = _seeds(ints, wp)
    if seeds is None:
        return None
    snap = Fraction(1, 1 << (2 * wp // 3))
    pts = [(re, Fraction(0) if abs(im) <= snap else im) for re, im in seeds]
    if len({pt for pt in pts}) != n:
        return None

    lc = ints[-1]
    disks = []
    for i, (re, im) in enumerate(pts):
        vr, vi = _ceval(ints, re, im)
        dr, di = Fraction(lc), Fraction(0)
        for j, (re2, im2) in enumerate(pts):
            if j == i:
                continue
            xr, xi = re - re2, im - im2
            dr, di = dr * xr - di * xi, dr * xi + di * xr
        den = dr * dr + di * di
        if den == 0:
            return None
        # W = v / d; |W|^2 = |v|^2 / |d|^2
        wsq = (vr * vr + vi * vi) / den
        rad = n * sqrt_ub(wsq)
        if rad >= target:
            return None
        disks.append([re, im, rad])

    for i in range(n):
        for j in range(i + 1, n):
            dr = disks[i][0] - disks[j][0]
            di = disks[i][1] - disks[j][1]
            s = disks[i][2] + disks[j][2]
            if dr * dr + di * di <= s * s:
                return None

    result, positives, negatives = [], [], []
    for re, im, rad in disks:
        if im == 0:
            a, b = re - rad, re + rad
            pa, pb = _sign_at(ints, a), _sign_at(ints, b)
            if pa == 0:
                result.append(ComplexEnclosure(a, 0, 0))
            elif pb == 0:
                result.append(ComplexEnclosure(b, 0, 0))
            elif pa != pb:
                result.append(ComplexEnclosure(re, 0, rad))
            else:
                return None
        elif abs(im) <= rad:
            return None
        else:
            (positives if im > 0 else negatives).append(ComplexEnclosure(re, im, rad))
    if len(positives) != len(negatives):
        return None
    # each upper disk's mirror must meet exactly one lower disk, which it replaces
    for e in positives:
        hits = [f for f in negatives if e.conjugate().meets(f)]
        if len(hits) != 1:
            return None
        negatives.remove(hits[0])
        result += [e, e.conjugate()]
    result.sort(key=lambda e: (e.re, e.im))
    return result


# ---------------------------------------------------------------------------
# exact unit-circle position of the roots of an irreducible polynomial

INSIDE, ON_CIRCLE, OUTSIDE = -1, 0, 1


def circle_root_count(q: QPoly) -> int:
    """Exact number of roots of the irreducible q on |z| = 1.

    A root mu on the circle has 1/mu = conj(mu) again a root, so q shares it
    with its reciprocal: q is x - 1, x + 1 or palindromic of degree 2m, and
    then two roots lie on the circle per root of T in (-2, 2), q = x^m T(x + 1/x).
    """
    if q.degree == 1:
        return int(abs(q[0]) == abs(q[1]))
    if q != q.reciprocal():
        return 0
    return 2 * count_real_roots(trace_polynomial(q), -2, 2)


def unit_circle_status(q: QPoly, enclosures=None) -> list[tuple[ComplexEnclosure, int]]:
    """Certified position of each root of irreducible q relative to |z| = 1.

    enclosures, when given, are q's roots as isolate_roots returned them.
    An enclosure certified off the circle takes its side; the roots are
    isolated again at doubled precision until exactly circle_root_count(q)
    enclosures are left, which then hold the roots on the circle.
    """
    if not q.is_monic or not q.is_integral:
        raise ValidationError("unit-circle test expects a monic integer polynomial")
    on_circle, bits = circle_root_count(q), 128
    encl = isolate_roots(q, bits) if enclosures is None else enclosures
    while True:
        statuses = [OUTSIDE if e.abs_lb() > 1 else INSIDE if e.abs_ub() < 1 else ON_CIRCLE for e in encl]
        if statuses.count(ON_CIRCLE) == on_circle:
            return list(zip(encl, statuses))
        bits *= 2
        if bits > MAX_BITS:
            raise PrecisionExhausted(f"unit-circle position of {q!r} unresolved at {MAX_BITS} bits")
        encl = isolate_roots(q, bits)


# ---------------------------------------------------------------------------
# rational reconstruction (continued fractions + caller-side exact verification)


def rational_reconstruct(x: Fraction, den_bound: int) -> Fraction:
    """Best continued-fraction convergent of x with denominator <= den_bound."""
    m2, m1 = 0, 1
    d2, d1 = 1, 0
    num, den = x.numerator, x.denominator
    best = Fraction(0)
    while den:
        a = num // den
        num, den = den, num - a * den
        m2, m1 = m1, a * m1 + m2
        d2, d1 = d1, a * d1 + d2
        if d1 > den_bound:
            break
        best = Fraction(m1, d1)
    return best
