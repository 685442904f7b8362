"""Fixed-point counts of iterates: fix(f^n) = |N(1 - f^n)|^(2g/(d e)), with d, e
the degree data of the endomorphism algebra.

A table fix(f^1..f^nmax) runs two exact paths side by side.  The norm path
reads only the element: it keeps f^n as one integer vector over one
denominator, steps it by the integer matrix of x -> x f, built once per table
from the algebra's own product, and takes the norm of 1 - f^n = w / s on the
integer vector w and s, with no element object per row, through the integer
kernels behind every norm: qpoly.resultant_int, after
quaternion.reduced_norm_int for a quaternion algebra.  The resultant path
reads only the monic reduced characteristic polynomial chi, of degree m:
row n is |Res(chi, 1 - x^n)|^(2g/(d e)), the product of (1 - mu^n) over the
roots mu of chi, read by Newton's identities off s_n, s_2n, ..., s_mn, the
power sums of chi that are those of the mu^n; one Newton recurrence keeps
s_0, s_1, ..., extended in doubling blocks as the rows need them, up to
s_(m nmax).  The paths share neither input nor exact kernel, so a
fault on either side shows up as a disagreement: a faulty product, reduced
norm or determinant reaches the norms, a faulty chi or Newton step the power
sums.  (chi is built once per spec, before the first row, and for a
quaternion it reads the reduced norm of f.)

A periodic table costs one period on each path.  f has finite order k
exactly when the table is periodic, and each path proves k on its own at
row k: the norm path when its integer vector of f^k is that of 1, the
resultant path when s_k, s_2k, ..., s_mk all equal m, the power sums of
(x - 1)^m, with fewer than 2 m k power sums computed.  From there each path
repeats its own first k rows, and the table still compares every row, so a
wrong period on either side is a disagreement.  An exponential table pays
one identity test per row.

fixed_points_exact is the single-n count, the norm of the element 1 - f^n.
companion_oracle is an independent brute-force count for a benchmark's
correctness judge: |det(I - M^n)| for the block-doubled integer companion
matrix M = C (x) I_2 of an integer polynomial, which is det(I - C^n)^2 on the
companion matrix C itself.

Every count first passes the Albert-type gate, admissibility_check, kept here
with EndomorphismSpec: the type, the named tuple AlbertType(kind, d, e), fixes
d, e and the exponent 2g/(d e).  The spectrum of f and what follows from it
live in classify.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import cycle, islice
from math import gcd
from operator import mul

from .errors import CrossCheckError, DivisibilityViolation, NonIntegralElement, NotSimpleAlbertType, ValidationError
from .numfield import CM, TOTALLY_REAL, NumberField, cm_structure
from .qpoly import QPoly, binary_power, det_int_bareiss, multiplication_columns, newton_coefficients
from .qpoly import extend_power_sums, over_common_denominator, power_sums, resultant_int
from .quaternion import MIXED, TOTALLY_DEFINITE, QuatAlgebra, QuatElement, definiteness, reduced_norm_int

ITERATE_CAP = 10**6
# dimension cap: every count is raised to 2g/(de), so the digits printed grow with g
DIMENSION_CAP = 1024

TOTALLY_REAL_FIELD = "TotallyRealField"
CM_FIELD = "CMField"
TOTALLY_DEFINITE_QUATERNION = "TotallyDefiniteQuaternion"
TOTALLY_INDEFINITE_QUATERNION = "TotallyIndefiniteQuaternion"


# kind: one of the four type names above; d: 1 for a field, 2 for a quaternion
# algebra; e: the degree over Q of the field or of the quaternion algebra's centre
AlbertType = namedtuple("AlbertType", "kind d e")


class EndomorphismSpec:
    """(algebra, element, dimension) triple fed to the classifiers."""

    def __init__(self, algebra, element, g: int):
        if isinstance(g, bool) or not isinstance(g, int) or g < 1:
            raise ValidationError("dimension g must be a positive integer")
        if isinstance(algebra, NumberField):
            element = algebra.element(element)
            if element.is_zero:
                raise ValidationError("endomorphism must be nonzero")
        elif isinstance(algebra, QuatAlgebra):
            if not isinstance(element, QuatElement) or element.algebra != algebra:
                raise ValidationError("element does not live in the given quaternion algebra")
            if element.is_zero:
                raise ValidationError("endomorphism must be nonzero")
        else:
            raise ValidationError("algebra must be a NumberField or a QuatAlgebra")
        self.algebra = algebra
        self.element = element
        self.g = g
        self._charpoly_q: QPoly | None = None
        # the Albert type (admissibility_check) and classify's record of what it decides
        self._albert = None
        self._classified = None

    @property
    def is_field_case(self) -> bool:
        return isinstance(self.algebra, NumberField)

    @property
    def d(self) -> int:
        return 1 if self.is_field_case else 2

    @property
    def e(self) -> int:
        field = self.algebra if self.is_field_case else self.algebra.base
        return field.degree

    def charpoly_q(self) -> QPoly:
        """Reduced characteristic polynomial over Q, degree d*e."""
        if self._charpoly_q is None:
            if self.is_field_case:
                self._charpoly_q = self.element.charpoly_q()
            else:
                self._charpoly_q = self.element.reduced_charpoly_q()
        return self._charpoly_q

    def exponent(self) -> int:
        """The norm-form exponent 2g / (d e); admissibility makes it integral."""
        de = self.d * self.e
        if (2 * self.g) % de:
            raise CrossCheckError("norm exponent is not integral on an admissible spec")
        return 2 * self.g // de

    def __repr__(self):
        return f"EndomorphismSpec(g={self.g}, element={self.element!r})"


def admissibility_check(spec: EndomorphismSpec) -> AlbertType:
    """Albert type of the given spec, plus the divisibility and integrality gates.

    Totally real: e | g.  CM: e/2 | g (the norm exponent 2g/e must be a
    positive integer; an elliptic curve with CM by Q(i) is the g=1, e=2
    case).  Quaternion: 2e | g.  The element must have an integral
    characteristic polynomial (order membership proxy); quaternion elements
    whose reduced norm vanishes, or whose pure part squares to zero, are zero
    divisors and are rejected outright.
    """
    if spec._albert is not None:
        return spec._albert
    g = spec.g
    if spec.is_field_case:
        report = cm_structure(spec.algebra)
        e = spec.algebra.degree
        if report.kind == TOTALLY_REAL:
            if g % e:
                raise DivisibilityViolation(f"totally real multiplication needs e | g, got e={e}, g={g}")
            at = AlbertType(TOTALLY_REAL_FIELD, 1, e)
        elif report.kind == CM:
            if (2 * g) % e:
                raise DivisibilityViolation(f"complex multiplication needs (e/2) | g, got e={e}, g={g}")
            at = AlbertType(CM_FIELD, 1, e)
        else:
            raise NotSimpleAlbertType("field is neither totally real nor CM")
    else:
        algebra = spec.algebra
        e = algebra.base.degree
        defrep = definiteness(algebra)
        if defrep.kind == MIXED:
            raise NotSimpleAlbertType("quaternion algebra is neither totally definite nor totally indefinite")
        if g % (2 * e):
            raise DivisibilityViolation(f"quaternion multiplication needs 2e | g, got e={e}, g={g}")
        f = spec.element
        if f.reduced_norm().is_zero:
            raise NotSimpleAlbertType("element has reduced norm zero: a zero divisor")
        # the pure part b i + c j + d k squares to -Nrd(b i + c j + d k)
        pure = algebra.element(0, f.b, f.c, f.d)
        if not pure.is_zero and pure.reduced_norm().is_zero:
            raise NotSimpleAlbertType("pure part squares to zero: a nilpotent zero divisor")
        kind = (
            TOTALLY_DEFINITE_QUATERNION
            if defrep.kind == TOTALLY_DEFINITE
            else TOTALLY_INDEFINITE_QUATERNION
        )
        at = AlbertType(kind, 2, e)
    if not spec.charpoly_q().is_integral:
        raise NonIntegralElement("characteristic polynomial over Q is not integral")
    spec._albert = at
    return at


def _check_iterate(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError("iterate index must be a positive integer")
    if n > ITERATE_CAP:
        raise ValidationError(f"iterate index above cap {ITERATE_CAP}")


def fixed_points_exact(spec: EndomorphismSpec, n: int) -> int:
    """|N(1 - f^n)|^(2g/(de)) as an exact integer; 0 reports an identity component."""
    _check_iterate(n)
    admissibility_check(spec)
    x = spec.algebra.one() - spec.element**n
    value = (x if spec.is_field_case else x.reduced_norm()).norm_q()
    return _abs_integer(value.numerator, value.denominator, "norm of an integral element") ** spec.exponent()


def _norm_counts(spec: EndomorphismSpec, nmax: int):
    """|N(1 - f^n)|^exponent for n = 1..nmax, reading only the element.

    f^n is one integer vector v over one denominator s on the Q-basis of
    _right_multiplication; each step is v <- M v, s <- s D and the common
    factor of s and v divided out, so v stays as small as f^n itself.  The
    norm of 1 - f^n = w / s runs on (w, s) through the integer kernels: over
    the field Q[x]/(m) it is Res(m, w / s), and over a quaternion algebra the
    same resultant of the reduced norm of w / s.  At the first n with
    f^n = 1, that is v = (1, 0, ..., 0) and s = 1, the table has period n and
    the path repeats its own rows (_repeat).
    """
    matrix, den = _right_multiplication(spec)
    exponent = spec.exponent()
    quaternion = not spec.is_field_case
    field = spec.algebra.base if quaternion else spec.algebra
    e, m = field.degree, field.minpoly
    one = [1] + [0] * (len(matrix) - 1)
    v, s, rows = one, 1, []
    for _ in range(nmax):
        v = [sum(map(mul, row, v)) for row in matrix]
        s *= den
        g = gcd(s, *v)
        if g != 1:
            v, s = [c // g for c in v], s // g
        if s == 1 and v == one:
            yield from _repeat(rows, nmax)
            return
        w, t = [-c for c in v], s
        w[0] += s
        if quaternion:
            w, t = reduced_norm_int(spec.algebra, [w[b : b + e] for b in range(0, 4 * e, e)], s)
        rows.append(_abs_integer(*resultant_int(m.num, m.den, w, t), "norm of an integral element") ** exponent)
        yield rows[-1]


def _repeat(rows: list[int], nmax: int):
    """Rows k..nmax of a table of period k whose rows 1..k-1 are rows: row k
    is 0, as 1 - f^k = 0, and row n is row n mod k after it."""
    rows.append(0)
    return islice(cycle(rows), len(rows) - 1, nmax)


def _right_multiplication(spec: EndomorphismSpec) -> tuple[list[list[int]], int]:
    """(rows of M, D) for the integer matrix M with M / D the matrix of x -> x f,
    D the least common denominator of its entries.

    The Q-basis is x^k for a field of degree e, and x^k u for u = 1, i, j, k
    for a quaternion algebra over one, coordinate u e + k.  The columns of
    block u are x^k u f: each coordinate of u f on 1, i, j, k times x^k in
    the base field (qpoly.multiplication_columns).  1 f is f itself, and
    i f, j f, k f come from the algebra's own product.
    """
    algebra, f = spec.algebra, spec.element
    if spec.is_field_case:
        m, images = algebra.minpoly, [[f.poly]]
    else:
        m = algebra.base.minpoly
        units = (algebra.gen_i(), algebra.gen_j(), algebra.gen_k())
        images = [[w.a.poly, w.b.poly, w.c.poly, w.d.poly] for w in (f, *(u * f for u in units))]
    nums, s = over_common_denominator([p for parts in images for p in parts])
    kernels = [multiplication_columns(m.num, m.den, p, s) for p in nums]
    den = kernels[0][1]  # the coordinates are reduced, so every kernel gives the same one
    # column k of block u stacks column k of each coordinate of u f
    width = len(images[0])
    blocks = [[c for c, _ in kernels[u : u + width]] for u in range(0, len(nums), width)]
    columns = [sum(cols, []) for block in blocks for cols in zip(*block)]
    g = gcd(den, *(c for col in columns for c in col))
    return [[c // g for c in row] for row in zip(*columns)], den // g


def _abs_integer(num: int, den: int, what: str) -> int:
    """|num / den|, which must be an integer."""
    q, r = divmod(num, den)
    if r:
        raise CrossCheckError(f"{what} is not an integer")
    return abs(q)


def fixed_point_table(spec: EndomorphismSpec, nmax: int) -> list[int]:
    """fix(f^1), ..., fix(f^nmax), every entry computed by two independent exact paths.

    The norm path steps f^n by the matrix of x -> x f and reads only the
    element; the resultant path reads every row off the power sums of
    chi = spec.charpoly_q(), m nmax + 1 at most for m = deg chi, and reads
    only chi.  Each path stops computing at the period it proves, if any,
    and repeats its rows.  Any disagreement, on any row, raises
    CrossCheckError.
    """
    _check_iterate(nmax)
    admissibility_check(spec)
    rows = []
    paths = zip(_norm_counts(spec, nmax), _resultant_counts(spec.charpoly_q(), spec.exponent(), nmax))
    for n, (exact, via) in enumerate(paths, 1):
        if exact != via:
            raise CrossCheckError(f"fixed-point paths disagree at n={n}: {exact} vs {via}")
        rows.append(exact)
    return rows


def _resultant_counts(chi: QPoly, exponent: int, nmax: int):
    """|Res(chi, 1 - x^n)|^exponent for n = 1..nmax, for a monic chi of degree m.

    Each row is the product of (1 - mu^n) over the roots mu of chi: the value
    at 1 of the monic polynomial whose roots mu^n have the power sums
    s_n, s_2n, ..., s_mn of chi, kept as s_0, s_1, ... from one recurrence,
    which is extended in doubling blocks as the rows need it, up to
    s_(m nmax).  At the first n where these all equal m, that polynomial is
    (x - 1)^m, so mu^n = 1 for every root: the table has period n and the
    path repeats its own rows (_repeat), with fewer than 2 m n sums computed.
    """
    m = chi.degree
    s = power_sums(chi, m)
    rows = []
    for n in range(1, nmax + 1):
        if len(s) <= m * n:
            extend_power_sums(chi, s, min(2 * (len(s) - 1), m * nmax))
        if s[n] == m and all(t == m for t in s[2 * n : m * n + 1 : n]):
            yield from _repeat(rows, nmax)
            return
        value = sum(newton_coefficients(s[: m * n + 1 : n], m))
        rows.append(_abs_integer(value.numerator, value.denominator, "Res(chi, 1 - x^n)") ** exponent)
        yield rows[-1]


def companion_oracle(char_poly: QPoly, n: int) -> int:
    """|det(I - M^n)| for the block-doubled companion model of char_poly.

    char_poly must have integer coefficients and leading coefficient +-1
    (the (-1)^deg convention is accepted); the doubled model acts on the
    rank-2*deg homology lattice of a product of elliptic curves.  M is
    C (x) I_2 for the deg x deg companion matrix C, so I - M^n is two copies
    of I - C^n and the count is det(I - C^n)^2.
    """
    _check_iterate(n)
    if not char_poly.is_integral:
        raise ValidationError("companion oracle needs integer coefficients")
    if char_poly.lc == -1:
        char_poly = -char_poly
    if not char_poly.is_monic:
        raise ValidationError("companion oracle needs a monic polynomial (up to sign)")
    deg = char_poly.degree
    if deg < 1:
        raise ValidationError("constant polynomials have no companion model")
    # the companion matrix C: ones below the diagonal, last column -p_0, ..., -p_(deg-1)
    comp = [[int(j == i - 1) for j in range(deg - 1)] + [-int(char_poly[i])] for i in range(deg)]
    identity = [[int(i == j) for j in range(deg)] for i in range(deg)]
    power = binary_power(comp, n, identity, lambda a, b: [[sum(map(mul, row, col)) for col in zip(*b)] for row in a])
    return det_int_bareiss([[int(i == j) - c for j, c in enumerate(row)] for i, row in enumerate(power)]) ** 2
