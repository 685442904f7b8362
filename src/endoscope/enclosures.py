"""Certified complex enclosures for polynomial roots.

Seeds are found on a(y) = q(2^k y), where q = p(x + c) is recentred at the
roots' centroid, the exact rational c = -a_(n-1) / (n a_n), if that lowers
the root bound by two bits or more (a tight cluster far from 0), and 2^k is
a root bound of q (see root_bound_exponent): all roots of a lie in the unit
disk, and an absolute error means the same for large roots as for small
ones.  The Aberth-Ehrlich iteration (Aberth, Math. Comp. 1973; Bini,
Numer. Algorithms 1996) runs first in double precision, started on circles
read off the Newton polygon of log|a_j|, then on Gaussian integers over
2^u, with q and q' evaluated exactly, until one sweep's corrections are so
small that cubic convergence puts the next below a unit: below
2^((2u - 8) / 3) units, so that no sweep runs only to confirm.  That is the
fixed-point pass's one stopping rule.  No step of either pass is trusted: the
certificate is exact, and when it refuses the points u is doubled.  For
seeds z_1..z_n and Weierstrass corrections

    W_i = p(z_i) / (lc * prod_{j != i} (z_i - z_j)),

every root of p lies in the union of the disks D(z_i, n*|W_i|), and a
connected component made of k disks contains exactly k roots (write
p = lc*(prod(x - z_i) + sum_i W_i prod_{j != i}(x - z_j)) and bound the sum
term outside the union; a homotopy in the W_i keeps root counts per
component).  So once the disks are pairwise disjoint, each contains exactly
one root.  p(z_i) 2^(un) and the products 2^(u(n-1)) lc prod (z_i - z_j) are
Gaussian integers, so |W_i|^2 is one quotient of integers, and its square
root is rounded up.  If the disks are too large or meet, u is doubled.

Squarefreeness is checked once, at the public entry: isolate_roots takes
gcd(p, p') by qpoly's modular gcd and raises NonSquarefreeInput before any
root is approximated, so rejecting (x^2 + 1)^8 costs that one gcd and no
sweep.  At a repeated root the Aberth steps converge only linearly and no
certificate can pass, as n disjoint disks prove n distinct roots:
unchecked, the polish would run to its step cap at every precision.  The
library's own callers isolate irreducible polynomials, which are
squarefree, and call _isolate, which runs no gcd.

The recentring, the seeds and the fixed-point pass are one untrusted step,
approximate_roots; the CM conjugation candidate in numfield interpolates
through its points directly, with no certificate, since its answer is
proved exactly.

The certified points are closed under conjugation: each point below the
axis is replaced by the mirror of one above it.  As p is real, each root's
conjugate is a root, so a certified disk centred on the axis, its own mirror,
holds a root equal to its conjugate: a real root, reported with exact zero
imaginary part.  A mirrored pair of disks holds a conjugate pair of roots,
and the disjointness of the two disks proves |im| > rad.  No sign of p is
evaluated.  The polish itself stays unsymmetrized, so that it can still split
two close real roots seeded as a conjugate pair.

Which roots lie on the unit circle is counted exactly (Sturm counts on the
trace polynomial, see circle_root_count); enclosures only say which roots
those are.

Every enclosure is integers (re, im, rad) over one positive denominator
(ComplexEnclosure).  The certificate's disks are built exactly over
den(c) 2^r from the Gaussian points over 2^u and the radii over 2^r, so the
roots of one polynomial share one denominator, and nothing is rounded.  The
side of the unit circle and meets are exact integer comparisons, with no
square root.  The target disks of algnum's root selection, products, powers
and folds z + N/z of root enclosures, are integer mantissas over 2^bits
(disk_product); an enclosure is read in once and the result given back once.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

from .errors import (
    NonSquarefreeInput,
    PrecisionExhausted,
    ValidationError,
)
from .qpoly import QPoly, _convolve, binary_power, count_real_roots, root_bound_exponent, trace_polynomial

MAX_BITS = 4096

INSIDE, ON_CIRCLE, OUTSIDE = -1, 0, 1

# root seeds: at most _DOUBLE_STEPS double-precision Aberth sweeps; start
# circles turned by _SIGMA plus the golden angle per Newton-polygon edge, of
# radius at least e^_LOG_TINY
_DOUBLE_STEPS = 100
_SIGMA = 0.7
_GOLDEN_ANGLE = math.pi * (3 - math.sqrt(5))
_LOG_TINY = -1000 * math.log(2)
_LN2 = math.log(2)


class ComplexEnclosure(namedtuple("ComplexEnclosure", "re_num im_num rad_num den")):
    """Closed disk |z - (re_num + i*im_num) / den| <= rad_num / den holding
    exactly one root: integers re_num, im_num, rad_num >= 0 over one
    denominator den > 0.

    The constructor takes any rationals re, im, radius and puts them on their
    least common denominator; the properties re, im and radius read them back
    as exact Fractions.  Equality and hashing compare values, whatever the
    denominators.
    """

    __slots__ = ()

    def __new__(cls, re, im, radius):
        re, im, radius = Fraction(re), Fraction(im), Fraction(radius)
        if radius < 0:
            raise ValidationError("negative enclosure radius")
        den = lcm(re.denominator, im.denominator, radius.denominator)
        return tuple.__new__(cls, (*(q.numerator * (den // q.denominator) for q in (re, im, radius)), den))

    def __reduce__(self):  # copy and pickle rebuild the four fields as they are: __new__ takes rationals
        return tuple.__new__, (type(self), tuple(self))

    def __repr__(self):
        """The midpoint to 12 digits and the radius rounded up to 3, divided in
        Decimal: a float quotient overflows past 10^308."""
        with localcontext() as ctx:
            ctx.prec = 12
            re, im = Decimal(self.re_num) / self.den, Decimal(self.im_num) / self.den
            ctx.prec, ctx.rounding = 3, ROUND_CEILING
            rad = Decimal(self.rad_num) / self.den
        return f"ComplexEnclosure({re:g}{im:+g}j, r{'<=' if self.rad_num else '='}{rad:g})"

    def _key(self) -> tuple[int, int, int, int]:
        """The integers over the least common denominator: equal disks have equal keys."""
        g = gcd(self.re_num, self.im_num, self.rad_num, self.den)
        return self.re_num // g, self.im_num // g, self.rad_num // g, self.den // g

    def __eq__(self, other):
        return isinstance(other, ComplexEnclosure) and self._key() == other._key()

    def __ne__(self, other):  # not the tuple's field-wise !=
        return not self == other

    def __hash__(self):
        return hash(self._key())

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.rad_num, self.den)

    @property
    def is_real(self) -> bool:
        return self.im_num == 0

    def abs_sq_mid(self) -> Fraction:
        return Fraction(self.re_num * self.re_num + self.im_num * self.im_num, self.den * self.den)

    def side(self) -> int:
        """OUTSIDE or INSIDE when every point of the disk lies on that side of
        |z| = 1, else ON_CIRCLE: |mid| - r > 1 or |mid| + r < 1, squared on
        the integers, with no square root."""
        m, d, r = self.re_num * self.re_num + self.im_num * self.im_num, self.den, self.rad_num
        if m > (d + r) * (d + r):
            return OUTSIDE
        if r < d and m < (d - r) * (d - r):
            return INSIDE
        return ON_CIRCLE

    def meets(self, other: ComplexEnclosure) -> bool:
        """True unless the two disks are provably disjoint."""
        d1, d2 = self.den, other.den
        dr = self.re_num * d2 - other.re_num * d1
        di = self.im_num * d2 - other.im_num * d1
        s = self.rad_num * d2 + other.rad_num * d1
        return dr * dr + di * di <= s * s

    def conjugate(self) -> ComplexEnclosure:
        return _enclosure(self.re_num, -self.im_num, self.rad_num, self.den)


def _enclosure(re: int, im: int, rad: int, den: int) -> ComplexEnclosure:
    """The disk of the integers re, im and rad >= 0 over den > 0, as they are."""
    return tuple.__new__(ComplexEnclosure, (re, im, rad, den))


# ---------------------------------------------------------------------------
# integer disk products: the target disks of algnum's root selection


def _nearest(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, for den > 0."""
    return (2 * num + den) // (2 * den)


def _ceil_sqrt(n: int) -> int:
    return isqrt(n - 1) + 1 if n else 0


def _disk_in(e: ComplexEnclosure, w: int) -> tuple[int, int, int]:
    """e as (re, im, rad) over 2^w: midpoints to nearest, the radius up and
    one more unit for the snap."""
    d = e.den
    return _nearest(e.re_num << w, d), _nearest(e.im_num << w, d), -(-(e.rad_num << w) // d) + 1


def _disk_mul(a: tuple[int, int, int], b: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """A disk over 2^w holding every product of a point of a and a point of b:
    |xy - x0 y0| <= |x0| rb + |y0| ra + ra rb for |x - x0| <= ra, |y - y0| <= rb."""
    ar, ai, ra = a
    br, bi, rb = b
    half = 1 << (w - 1)
    rad = _ceil_sqrt(ar * ar + ai * ai) * rb + _ceil_sqrt(br * br + bi * bi) * ra + ra * rb
    return (ar * br - ai * bi + half) >> w, (ar * bi + ai * br + half) >> w, -(-rad >> w) + 1


def _disk_fold(z: tuple[int, int, int], big_n, w: int) -> tuple[int, int, int]:
    """A disk over 2^w holding x + N/x for every point x of z, N rational.

    1/x ranges over the disk of centre conj(c) / d and radius r / d, with
    d = |c|^2 - r^2 > 0 for the centre c and radius r of z."""
    cr, ci, r = z
    den = (cr * cr + ci * ci - r * r) * big_n.denominator
    if den <= 0:
        raise ValidationError("cannot invert an enclosure that may contain zero")
    num = big_n.numerator << (2 * w)
    rad = -(-abs(num) * r // den) + 1
    return cr + _nearest(num * cr, den), ci + _nearest(-num * ci, den), r + rad


def disk_product(enclosures, bits: int, m: int = 1, fold=None) -> ComplexEnclosure:
    """A certified enclosure of w = (prod z)^m, m >= 1, over the points z of
    the given enclosures, or of w + fold/w for a rational fold.

    The work runs on integer disks (re, im, rad) over 2^bits, each step
    rounded outward: midpoints to nearest, the radius up and one more unit for
    the snap.  Long products would otherwise accumulate dyadic numerators of
    unbounded size; rounding after each step keeps every integer near the
    working precision while the disk stays an enclosure.  Real inputs give an
    exactly real disk.
    """
    if m < 1:
        raise ValidationError("disk powers need an exponent of at least 1")

    def mul(a, b):
        return _disk_mul(a, b, bits)

    one = 1 << bits
    base = reduce(mul, [_disk_in(e, bits) for e in enclosures] or [(one, 0, 0)])
    disk = binary_power(base, m - 1, base, mul)
    if fold is not None:
        disk = _disk_fold(disk, fold, bits)
    return _enclosure(*disk, one)


# ---------------------------------------------------------------------------
# root isolation


def _horner(c: list[int], zr: int, zi: int, w: int) -> tuple[int, int]:
    """2^(w deg c) c(z) at the Gaussian dyadic z = (zr + i zi) / 2^w, exactly:
    homogeneous Horner on Gaussian integers."""
    ar, ai, shift = c[-1], 0, 0
    for a in reversed(c[:-1]):
        shift += w
        ar, ai = ar * zr - ai * zi + (a << shift), ar * zi + ai * zr
    return ar, ai


def _cdiv(ar: int, ai: int, br: int, bi: int, shift: int = 0) -> tuple[int, int]:
    """2^shift a / b for Gaussian integers a and b != 0, rounded to a Gaussian integer."""
    m = 2 * (br * br + bi * bi)
    return (((ar * br + ai * bi) << (shift + 1)) + m // 2) // m, (((ai * br - ar * bi) << (shift + 1)) + m // 2) // m


def _seeds(shifted: list[int]) -> tuple[int, list[complex]]:
    """k and untrusted double approximations of the roots y of a(y) = q(2^k y),
    all in the unit disk, by the Aberth-Ehrlich iteration.

    The start points lie on the circles read off the Newton polygon of a:
    for each edge of the upper convex hull of (j, log|a_j|), as many points
    as the edge is wide on the circle of radius r = (|a_i| / |a_j|)^(1/(j-i)),
    turned by the golden angle times the edge's first index so that edges of
    equal radius do not start on the same points; a zero constant term puts
    one start at the root 0.  Near a point y, a is evaluated as a(r t) for
    t = y / r, r the nearest radius, with its coefficients a_j r^j divided
    by the largest: so a root far smaller than the largest does not push the
    coefficients out of the double-precision range.
    """
    n = len(shifted) - 1
    k = root_bound_exponent(shifted)
    logs = [(j, math.log(abs(a)) + k * j * _LN2) for j, a in enumerate(shifted) if a]
    hull: list[tuple[int, float]] = []
    for j, lj in logs:
        while len(hull) > 1:  # drop the last vertex while it is on or below the chord to (j, lj)
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            if (l1 - l0) * (j - i0) > (lj - l0) * (i1 - i0):
                break
            hull.pop()
        hull.append((j, lj))
    starts, scales = [0j] * logs[0][0], []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        rho = max((li - lj) / (j - i), _LOG_TINY)  # log of the edge's radius
        top = max(lm + m * rho for m, lm in logs)
        coeffs = [0.0] * (n + 1)
        for m, lm in logs:
            coeffs[m] = math.exp(lm + m * rho - top) if shifted[m] > 0 else -math.exp(lm + m * rho - top)
        r, turn = math.exp(rho), _SIGMA + _GOLDEN_ANGLE * i
        scales.append((rho, r, coeffs))
        starts += [cmath.rect(r, turn + 2 * math.pi * t / (j - i)) for t in range(j - i)]

    def newton_step(y: complex) -> complex:
        """a(y) / a'(y)."""
        _, r, coeffs = min(scales, key=lambda e: abs(e[0] - math.log(abs(y)))) if len(scales) > 1 else scales[0]
        t, v, d = y / r, complex(coeffs[n]), 0j
        for a in reversed(coeffs[:-1]):
            d = d * t + v
            v = v * t + a
        return r * v / d

    z = list(starts)
    live = [i for i, y in enumerate(z) if y]  # a start at 0 is the root 0 itself
    for _ in range(_DOUBLE_STEPS):
        moved = []
        for i in live:
            y = z[i]
            try:
                ratio = newton_step(y)
                step = ratio / (1 - ratio * sum(1 / (y - x) for j, x in enumerate(z) if j != i))
                if cmath.isfinite(step):
                    z[i] = y - step
                    if abs(step) > 2.0**-50 * abs(y):
                        moved.append(i)
            except (ZeroDivisionError, OverflowError, ValueError):
                pass
        if not moved:
            break
        live = moved
    # a point that left the unit disk's neighbourhood restarts where it began
    return k, [y if abs(y.real) <= 2 and abs(y.imag) <= 2 else y0 for y, y0 in zip(z, starts)]


def _fixed(x: float, w: int) -> int:
    """x * 2^w rounded to the nearest integer, ties to even, exactly: a
    double is n / d with d a power of two."""
    n, d = x.as_integer_ratio()
    q, r = divmod(n << w, d)
    return q + (2 * r > d or 2 * r == d and q & 1)


def _sweep(shifted: list[int], dq: list[int], pts: list[tuple[int, int]], u: int) -> int | None:
    """One Aberth-Ehrlich sweep over the points pts, in place: the largest
    correction in units of 2^-u, or None if two points meet."""
    one, largest = 1 << u, 0
    for i, (yr, yi) in enumerate(pts):
        vr, vi = _horner(shifted, yr, yi, u)
        if not (vr or vi):
            continue
        dr, di = _horner(dq, yr, yi, u)
        if not (dr or di):
            return None
        nr, ni = _cdiv(vr, vi, dr, di)  # Newton step q / q' in units of 2^-u
        sr = si = 0
        for j, (xr, xi) in enumerate(pts):
            if j != i:
                er, ei = yr - xr, yi - xi
                if not (er or ei):
                    return None
                tr, ti = _cdiv(1, 0, er, ei, 2 * u)  # sum of 1 / (y - x) in units of 2^-u
                sr, si = sr + tr, si + ti
        # the Aberth step ratio / (1 - ratio * sum)
        br, bi = one - ((nr * sr - ni * si) >> u), -((nr * si + ni * sr) >> u)
        cr, ci = _cdiv(nr, ni, br, bi, u) if br or bi else (nr, ni)
        pts[i] = (yr - cr, yi - ci)
        largest = max(largest, abs(cr), abs(ci))
    return largest


def _polish(shifted: list[int], pts: list[tuple[int, int]], u: int) -> list[tuple[int, int]] | None:
    """Aberth-Ehrlich steps on the Gaussian dyadics (re + i im) / 2^u, with
    q and q' evaluated exactly, until the largest correction c of a sweep, in
    units of 2^-u, has 3 bitlen(c) < 2u - 8, or a step cap that grows with
    degree and precision is met.  None if two points meet.

    The steps converge cubically at simple roots, so after a sweep whose
    corrections are below 2^((2u - 8) / 3) units the next one would move no
    point by a unit: that confirming sweep is not run.  As u >= 64, a sweep
    whose corrections are all a few units already stops the polish."""
    dq = [j * a for j, a in enumerate(shifted)][1:]
    for _ in range(len(pts) + u):
        largest = _sweep(shifted, dq, pts, u)
        if largest is None:
            return None
        if 3 * largest.bit_length() < 2 * u - 8:
            break
    return pts


def approximate_roots(ints: list[int]) -> tuple[Fraction | int, list[int], Callable]:
    """The untrusted step of root isolation, for the integer coefficients of a
    squarefree p of degree at least 2: the centre c, the coefficients of
    q = p(x + c), and polish(u), the Aberth-Ehrlich points (re, im) over 2^u
    for the roots of q (None if two points meet).  The double seeds are found
    once, here; polish(u) starts from them at every u.

    isolate_roots certifies these points; the CM conjugation candidate only
    interpolates through them, and its answer is proved exactly afterwards.
    """
    n = len(ints) - 1
    # recentre at the roots' centroid c when that lowers the root bound by 2
    # bits or more: a tight cluster far from 0 is then seen at its own scale,
    # while roots spread out around 0 stay put
    c = Fraction(-ints[n - 1], n * ints[n])
    shifted = [ints[n]]  # the Taylor shift by Horner's rule on den^n p((den x + num) / den), c = num / den
    for j in range(n - 1, -1, -1):
        shifted = _convolve(shifted, [c.numerator, c.denominator])
        shifted[0] += ints[j] * c.denominator ** (n - j)
    g = gcd(*shifted)
    shifted = [v // g for v in shifted]
    if root_bound_exponent(shifted) > root_bound_exponent(ints) - 2:
        c, shifted = 0, ints
    k, seeds = _seeds(shifted)

    def polish(u: int) -> list[tuple[int, int]] | None:
        return _polish(shifted, [(_fixed(y.real, u + k), _fixed(y.imag, u + k)) for y in seeds], u)

    return c, shifted, polish


def isolate_roots(p: QPoly, precision_bits: int = 128) -> list[ComplexEnclosure]:
    """Certified pairwise-disjoint enclosures of all roots of a squarefree p.

    Every enclosure holds exactly one root; real roots carry an exact zero
    imaginary midpoint and non-real enclosures come in exact conjugate pairs,
    both proved by the certificate of a point set closed under conjugation
    (a disk centred on the real axis is its own mirror, so its one root is
    real).  Radii shrink when precision_bits grows.  A p with a repeated root
    raises NonSquarefreeInput before any root is approximated.
    """
    if p.degree > 1 and p.gcd(p.derivative()).degree > 0:
        raise NonSquarefreeInput("input polynomial has repeated roots")
    return _isolate(p, precision_bits)


def _isolate(p: QPoly, precision_bits: int) -> list[ComplexEnclosure]:
    """isolate_roots with no squarefree check, for a p known to be
    irreducible: a repeated root would run every polish to its step cap and
    every precision to the cap before PrecisionExhausted."""
    if precision_bits < 64:
        raise ValidationError("precision_bits must be at least 64")
    if p.is_zero:
        raise ValidationError("cannot isolate roots of the zero polynomial")
    if p.degree <= 0:
        return []
    _, ints = p.clear_denominators()
    n = len(ints) - 1
    if n == 1:
        return [_enclosure(-ints[0], 0, 0, ints[1])]

    c, shifted, polish = approximate_roots(ints)
    wp = precision_bits + 32 + 8 * n
    cap = max(8 * precision_bits, MAX_BITS) + 8 * n
    while wp <= cap:
        got = _attempt(shifted, c, polish(wp), wp, precision_bits - 4)
        if got is not None:
            return got
        wp *= 2
    raise PrecisionExhausted(f"could not separate roots of {p!r} within {cap} bits")


def _attempt(shifted, c, pts, u, target_bits):
    """The certified enclosures of the roots c + z_i of p, z_i the Gaussian
    dyadics pts over 2^u (roots of q = p(x + c)) made closed under
    conjugation, or None.  The radii n |W_i| are computed over 2^r:
    2^(un) q(z_i) by homogeneous Horner and 2^(u(n-1)) lc prod (z_i - z_j)
    as integer products give |W_i|^2 as one quotient of integers, whose
    square root is rounded up.  As q is real, W at a mirrored point is the
    conjugate of W at its original, so only the real and upper points are
    evaluated."""
    if pts is None:
        return None
    n = len(pts)
    # each point below the axis gives way to the mirror of one above it
    reals, upper = [z for z in pts if z[1] == 0], [z for z in pts if z[1] > 0]
    if len(reals) + 2 * len(upper) != n:
        return None
    pts = reals + upper + [(re, -im) for re, im in upper]
    if len(set(pts)) != n:
        return None

    r = u + 64  # radii 64 bits finer than the midpoints
    lc, radii = shifted[-1], []
    for i, (re, im) in enumerate(pts[: len(reals) + len(upper)]):
        vr, vi = _horner(shifted, re, im, u)
        dr, di = lc, 0
        for j, (re2, im2) in enumerate(pts):
            if j != i:
                xr, xi = re - re2, im - im2
                dr, di = dr * xr - di * xi, dr * xi + di * xr
        # |W|^2 = |v|^2 / (|d|^2 2^(2u)), so |W|^2 2^(2r) <= t
        t = -(-((vr * vr + vi * vi) << (2 * (r - u))) // (dr * dr + di * di))
        rad = n * (isqrt(t - 1) + 1) if t else 0
        if rad >= 1 << (r - target_bits):  # n |W| must be below 2^-target_bits
            return None
        radii.append(rad)
    radii += radii[len(reals) :]

    # disjoint disks hold one root each; for an upper disk and its mirror
    # this is also the proof that |im| > rad
    for i in range(n):
        for j in range(i + 1, n):
            dr, di = (pts[i][0] - pts[j][0]) << (r - u), (pts[i][1] - pts[j][1]) << (r - u)
            s = radii[i] + radii[j]
            if dr * dr + di * di <= s * s:
                return None

    # the disks over den = den(c) 2^r: midpoints num(c) 2^r + z den(c) 2^(r-u)
    # and radii rad den(c), exactly, sorted by midpoint (the disks are
    # disjoint, so no two midpoints are equal)
    den, scale, shift = c.denominator << r, c.denominator << (r - u), c.numerator << r
    disks = sorted((shift + zr * scale, zi * scale, rad * c.denominator) for (zr, zi), rad in zip(pts, radii))
    return [_enclosure(re, im, rad, den) for re, im, rad in disks]


# ---------------------------------------------------------------------------
# exact unit-circle position of the roots of an irreducible polynomial


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
    encl = _isolate(q, bits) if enclosures is None else enclosures
    while True:
        statuses = [e.side() for e in encl]
        if statuses.count(ON_CIRCLE) == on_circle:
            return list(zip(encl, statuses))
        bits *= 2
        if bits > MAX_BITS:
            raise PrecisionExhausted(f"unit-circle position of {q!r} unresolved at {MAX_BITS} bits")
        encl = _isolate(q, bits)
