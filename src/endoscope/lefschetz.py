"""Fixed-point counts of iterates: fix(f^n) = |N(1 - f^n)|^(2g/(d e)), with d, e
the degree data of the endomorphism algebra.

A table fix(f^1..f^nmax) runs two exact paths side by side.  The norm path
reads only the element: it steps one integer vector over one denominator by
one integer matrix, built once per table, and reads each row off it through
qpoly.resultant_int, the kernel behind every norm.  Over a field the vector
is f^n and the matrix that of x -> x f.  Over a quaternion algebra with
centre F, f^n = A + B f lies in F + F f, and the vector holds A, B and
P = Nrd(f)^n, stepped by (A, B, P) -> (-N B, A + t B, N P) as f^2 = t f - N:
t = Trd(f) = 2a, and N = t f - f f, one product in the algebra, must be
central.  A central f = a steps by (A, B, P) -> (a A, 0, N P), so f^k = 1
returns to the state of 1.  Row n reads Nrd(1 - f^n) = 1 - (2 A + t B) + P.
The resultant path reads only the monic reduced characteristic polynomial
chi, of degree m: row n is |Res(chi, 1 - x^n)|^(2g/(d e)), the product of
(1 - mu^n) over the roots mu of chi, read by Newton's identities off s_n,
s_2n, ..., s_mn, the power sums of the mu^n, kept as s_0, s_1, ... from one
recurrence and extended in doubling blocks.

Both paths read later rows off a recurrence.  The signed rows
a_n = N(1 - f^n) = prod(1 - mu^n), a_0 = 0, form a Lehmer-Pierce sequence:
the sum over the subsets S of the roots of (-1)^|S| times the n-th power of
the product of S, so they follow a linear recurrence of order L <= 2^m.  The
resultant path builds the one of order 2^m whose monic polynomial Q has all
2^m products as roots: Q's power sums are P_j = prod(1 + mu^j), (-1)^m times
the value at -1 of the polynomial row j reads at 1, so one more Newton call
of degree 2^m turns P_1..P_(2^m) into Q, and the power sums end at
s_(m 2^m).  The norm path finds its own from its rows alone, so it still
reads only the element: Massey's shift-register synthesis
(qpoly.berlekamp_massey; IEEE Trans. Inf. Theory 15, 1969) recovers the
shortest recurrence exactly from a_0..a_(2^(m+1)-1), as L <= 2^m.  An L past
2^m, which the identity forbids, or a row that its constant term does not
divide, is a CrossCheckError.  Each later row is one dot product with the
last L rows, in a loop of each path's own.  Each path takes its recurrence
where _recurrence_pays, one measured rule for both that weighs every product
by the bits of its operands, says it costs less than reading the rows
directly.  The paths share neither input nor exact kernel, so a fault on
either side is a disagreement: a faulty product, determinant or
Berlekamp-Massey reaches the norms, a faulty chi, reduced norm
(quaternion.reduced_norm_int, read by chi alone), Newton step or Q the
resultant rows.

A periodic table costs one period on each path.  f has finite order k
exactly when the table is periodic, and each path proves k on its own at
row k: the norm path when its integer vector of f^k is that of 1, the
resultant path when s_k, s_2k, ..., s_mk all equal m, the power sums of
(x - 1)^m, with fewer than 2 m k power sums computed.  On the recurrence only
a row that is 0 starts that proof, as mu^k = 1 for every root makes it so,
and the power sums are extended to s_mk for it.  From there each path
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

from collections import deque, namedtuple
from functools import partial
from itertools import cycle, islice
from math import gcd
from operator import mul

from .errors import CrossCheckError, DivisibilityViolation, NonIntegralElement, NotSimpleAlbertType, ValidationError
from .numfield import CM, TOTALLY_REAL, NumberField, cm_structure
from .qpoly import QPoly, berlekamp_massey, binary_power, det_int_bareiss, multiplication_columns, newton_coefficients
from .qpoly import extend_power_sums, over_common_denominator, power_sums, resultant_int
from .quaternion import MIXED, TOTALLY_DEFINITE, QuatAlgebra, QuatElement, definiteness

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
    return abs(_quotient(value.numerator, value.denominator, "norm of an integral element")) ** spec.exponent()


def _norm_counts(spec: EndomorphismSpec, nmax: int):
    """|N(1 - f^n)|^exponent for n = 1..nmax, reading only the element.

    The state is one integer vector v over one denominator s, stepped by the
    matrix M / D of _right_multiplication: v <- M v, s <- s D and the common
    factor of s and v divided out, so v stays as small as f^n itself.  Row n
    is Res(m, w / s) for the minimal polynomial m of the field or the centre,
    with w / s = 1 - f^n, or Nrd(1 - f^n) read off v by R / D_R.  At the
    first n where v and s are those of 1, the table has period n and the path
    repeats its own rows (_repeat).

    Past row 2^(m+1) - 1, where _recurrence_pays, the rows come off the
    recurrence of order L <= 2^m that Berlekamp-Massey reads from the signed
    rows a_0 = 0, a_1, ..., a_(2^(m+1)-1) (_norm_recurrence).  A finite order
    k comes first: the roots of chi are then k-th roots of unity, conjugate,
    so phi(k) <= m, which keeps k below 2^(m+1).
    """
    matrix, den, read, read_den = _right_multiplication(spec)
    exponent = spec.exponent()
    field = spec.algebra if spec.is_field_case else spec.algebra.base
    m = field.minpoly
    order = 1 << (spec.d * spec.e)  # 2^m for m = deg chi: the recurrence has order L <= 2^m
    first = 2 * order - 1  # rows 1..first and a_0 give Berlekamp-Massey 2^(m+1) terms
    one = [1] + [0] * (len(matrix) - 1)
    if read:
        one[2 * field.degree] = 1  # P = Nrd(1)
    v, s, rows, signed = one, 1, [], [0]
    for n in range(1, nmax + 1):
        if n == first + 1:
            bits, width = signed[-1].bit_length(), max(map(abs, v)).bit_length()
            setup = partial(_berlekamp_massey_cost, order, bits)
            direct = partial(_norm_row_cost, len(matrix), field.degree, width, bits)
            if _recurrence_pays(order, first, nmax, bits, setup, direct):
                yield from _norm_recurrence(signed, order, nmax - first, exponent)
                return
        v = [sum(map(mul, row, v)) for row in matrix]
        s *= den
        g = gcd(s, *v)
        if g != 1:
            v, s = [c // g for c in v], s // g
        if s == 1 and v == one:
            yield from _repeat(rows, nmax)
            return
        if read:
            w, t = [sum(map(mul, row, v)) for row in read], s * read_den
        else:
            w, t = [-c for c in v], s
        w[0] += t
        value = _quotient(*resultant_int(m.num, m.den, w, t), "norm of an integral element")
        if n <= first and first < nmax:
            signed.append(value)
        rows.append(abs(value) ** exponent)
        yield rows[-1]


def _norm_recurrence(signed: list[int], order: int, count: int, exponent: int):
    """The count rows past the signed rows a_0, a_1, ... of the norm path:
    a_n = -(c_1 a_(n-1) + ... + c_L a_(n-L)) / c_0, exactly, for the
    recurrence c_0 + c_1 x + ... + c_L x^L that Berlekamp-Massey reads from
    them, which the identity bounds by L <= order."""
    c = berlekamp_massey(signed)
    if c is None or len(c) - 1 > order:
        raise CrossCheckError(f"the norms follow no integer recurrence of order <= {order}")
    lead, tail = c[0], c[:0:-1]  # c_0, and c_L, ..., c_1 against a_(n-L), ..., a_(n-1)
    window = deque(signed, maxlen=len(tail))
    for _ in range(count):
        value, r = divmod(-sum(map(mul, tail, window)), lead)
        if r:
            raise CrossCheckError("a recurrence row of the norms is not an integer")
        window.append(value)
        yield abs(value) ** exponent


def _repeat(rows: list[int], nmax: int):
    """Rows k..nmax of a table of period k whose rows 1..k-1 are rows: row k
    is 0, as 1 - f^k = 0, and row n is row n mod k after it."""
    rows.append(0)
    return islice(cycle(rows), len(rows) - 1, nmax)


def _right_multiplication(spec: EndomorphismSpec) -> tuple[list[list[int]], int, list[list[int]] | None, int]:
    """(M, D, R, D_R), integer rows over least common denominators: M / D
    the step of the norm path's state, R / D_R its reading for a quaternion
    algebra (None and 1 for a field).

    For a field of degree e, M / D is x -> x f on the basis x^k.  Over a
    quaternion algebra with centre F of degree e, it is A, B and P, each on
    the basis x^k of F, stepped as the module docstring says, and R reads
    Nrd(1 - f^n) - 1 = -(2 A + t B) + P.  Each block is a multiplication
    matrix on F (qpoly.multiplication_columns).
    """
    algebra, f = spec.algebra, spec.element
    if spec.is_field_case:
        field, polys = algebra, [f.poly]
    else:
        t = f.reduced_trace()
        n, *pure = (t * x - y for x, y in zip(f[1:], (f * f)[1:]))
        if not all(x.is_zero for x in pure):
            raise CrossCheckError("Trd(f) f - f^2 is not central")
        field, polys = algebra.base, [*(x.poly for x in (f.a, t, n, -n, -t)), QPoly((1,)), QPoly((-2,))]
    m, e = field.minpoly, field.degree
    nums, s = over_common_denominator(polys)
    kernels = [multiplication_columns(m.num, m.den, p, s) for p in nums]
    den = kernels[0][1]  # the coordinates are reduced, so every kernel gives the same one
    # the rows of multiplication by f; or by a, t, N, -N, -t, 1 and -2, and a row of blocks joins their rows
    blocks = [list(zip(*cols)) for cols, _ in kernels]
    if spec.is_field_case:
        return (*_lowest(blocks[0], den), None, 1)
    a, t, n, neg_n, neg_t, one, neg_two = blocks
    zero = [(0,) * e] * e
    if f.b.is_zero and f.c.is_zero and f.d.is_zero:
        grid = [[a, zero, zero], [zero] * 3, [zero, zero, n]]
    else:
        grid = [[zero, neg_n, zero], [one, t, zero], [zero, zero, n]]
    step = [sum(rows, ()) for line in grid for rows in zip(*line)]
    return (*_lowest(step, den), *_lowest([sum(rows, ()) for rows in zip(neg_two, neg_t, one)], den))


def _lowest(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """rows and den divided by the gcd of den and every entry."""
    g = gcd(den, *(c for row in rows for c in row))
    return [[c // g for c in row] for row in rows], den // g


def _quotient(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer."""
    q, r = divmod(num, den)
    if r:
        raise CrossCheckError(f"{what} is not an integer")
    return q


def fixed_point_table(spec: EndomorphismSpec, nmax: int) -> list[int]:
    """fix(f^1), ..., fix(f^nmax), every entry computed by two independent exact paths.

    The norm path steps its state of f^n by one integer matrix and reads only
    the element, or past row 2^(m+1) - 1 reads the rows off the recurrence
    of order <= 2^m that Berlekamp-Massey finds in its own signed rows, for
    m = deg chi; the resultant path reads every row off the power sums of
    chi = spec.charpoly_q(), m nmax + 1 at most, or off their recurrence of
    order 2^m past row 2^m, and reads only chi.  Each takes its recurrence
    where _recurrence_pays.  Each path stops computing at the period it
    proves, if any, and repeats its rows.  Any disagreement, on any row,
    raises CrossCheckError.
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
    which is extended in doubling blocks as the rows need it.  At the first n
    where these all equal m, that polynomial is (x - 1)^m, so mu^n = 1 for
    every root: the table has period n and the path repeats its own rows
    (_repeat), with fewer than 2 m n sums computed.

    Past row 2^m, where _recurrence_pays at row 2^m + 1, the signed rows
    r_n, sums over the subsets S of the roots of (-1)^|S| times the n-th
    power of their product, follow the order-2^m recurrence of
    _recurrence_polynomial, one dot product a row, and the power sums end at
    s_(m 2^m).  A row there starts the period proof only when it is 0, as
    mu^n = 1 for every root makes it.
    """
    m = chi.degree
    order = 1 << m
    last = min(order, nmax)  # the last row read by Newton's identities, past 2^m where the recurrence does not pay
    s = power_sums(chi, m)
    rows, polys, signed = [], [], deque(maxlen=last)  # the polynomials of rows 1..2^m, and the last 2^m signed rows
    for n in range(1, nmax + 1):
        if n == last + 1:
            bits = value.numerator.bit_length()
            setup = partial(_newton_setup_cost, order, bits)
            direct = partial(_newton_row_cost, m, s[m * order].numerator.bit_length())
            if _recurrence_pays(order, order, nmax, bits, setup, direct):
                # P_j, the product of (1 + mu^j): (-1)^m times the value at -1, 2 (c_0 + c_2 + ...) - r_j
                sign = -1 if m % 2 else 1
                q = _recurrence_polynomial([sign * (2 * sum(c[::2]) - r) for c, r in zip(polys, signed)])
            else:
                last = nmax
            polys.clear()
        if n <= last:
            if len(s) <= m * n:
                extend_power_sums(chi, s, min(2 * (len(s) - 1), m * last))
            if _proves_period(s, m, n):
                yield from _repeat(rows, nmax)
                return
            c = newton_coefficients(s[: m * n + 1 : n], m)
            value = sum(c)
            if last < nmax:
                signed.append(value)
                polys.append(c)
        else:
            value = -sum(map(mul, q, signed))
            signed.append(value)
            if value == 0 and _proves_period(extend_power_sums(chi, s, m * n), m, n):
                yield from _repeat(rows, nmax)
                return
        rows.append(abs(_quotient(value.numerator, value.denominator, "Res(chi, 1 - x^n)")) ** exponent)
        yield rows[-1]


def _proves_period(s: list, m: int, n: int) -> bool:
    """s_n = s_2n = ... = s_mn = m: every mu^n is 1."""
    return s[n] == m and all(t == m for t in s[2 * n : m * n + 1 : n])


# Measured costs in nanoseconds (CPython 3.11 on x86-64) behind _recurrence_pays:
# a product's dispatch, and then each product of two 30-bit digits; the fixed
# costs of a row on each reading and of each recurrence's setup; and the
# steps of Berlekamp-Massey's loops modulo one prime, per (2^m)^2
_DISPATCH, _DIGIT = 160, 1.2
_FIXED_COST = {"norm": 8000, "resultant": 5000, "recurrence": 2500, "newton": 5000, "berlekamp-massey": 50000}
_BM_STEPS = 500


def _product_cost(a: float, b: float) -> float:
    """The cost of a product of an a-bit by a b-bit int: schoolbook on their
    30-bit digits, or Karatsuba once both have 70 of them."""
    x, y = 1 + a / 30, 1 + b / 30
    if x > y:
        x, y = y, x
    return _DISPATCH + _DIGIT * (x * y if x < 70 else y / x * 4900 * (x / 70) ** 1.585)


def _recurrence_pays(order: int, first: int, nmax: int, bits: int, setup, direct) -> bool:
    """Whether rows first + 1..nmax cost less off a recurrence of order at
    most `order`, set up from rows 1..first, than read directly, every product
    weighed by the bits of its operands (_product_cost).

    The signed row at first has `bits` bits, and every operand grows in
    proportion to n.  The recurrence's coefficients are taken at half the
    bound 2^m + 2^(m-1) log2 M(chi) on their bits, log2 M(chi) being the
    rows' growth in bits a row, as measured on random chi of degree 2 to 10; a
    row off it costs 2^m products of a coefficient by a row.  setup(coef) is
    the one-off cost of the recurrence, and direct(scale) the cost of a row
    read directly whose operands have scale times their bits at row first.
    Each row is weighed as the mean row, exact for the recurrence, linear in
    n, and an undercount of direct rows, whose products of two operands of a
    row's size grow as n^2.
    """
    if nmax <= first:
        return False
    coef, scale = order * (1 + bits / first / 2) / 2, (first + 1 + nmax) / (2 * first)
    recurrence = _FIXED_COST["recurrence"] + order * _product_cost(coef, bits * scale)
    return setup(coef) + (nmax - first) * recurrence < (nmax - first) * direct(scale)


def _newton_setup_cost(order: int, bits: int, coef: float) -> float:
    """Q from P_1..P_order by Newton's identities: order^2 / 2 products of
    the coefficients built so far, coef / 2 bits on average, by a P_j, bits
    / 2 bits on average as P_j grows with j like row j."""
    return _FIXED_COST["newton"] + order * order / 2 * _product_cost(coef / 2, bits / 2)


def _berlekamp_massey_cost(order: int, bits: int, coef: float) -> float:
    """Berlekamp-Massey on 2 order terms of at most `bits` bits: its loops
    modulo each prime, as many 29-bit primes as reach 20 bits past the
    coefficients, then order^2 products of a coefficient by a term to prove
    the candidate."""
    primes = 1 + (coef + 20) // 29
    return _FIXED_COST["berlekamp-massey"] + order * order * (primes * _BM_STEPS + _product_cost(coef, bits))


def _newton_row_cost(m: int, sums_bits: int, scale: float) -> float:
    """A row read by Newton's identities off power sums of scale * sums_bits
    bits at most: m new power sums of m products and a division each, and the
    products e_(k-i) s_(in), 1 <= i < k <= m, with their sums, at two
    products each; the pairs average (k - i) i / m^2 = 1/12 of the square of
    the sums' bits."""
    size = sums_bits * scale
    pairs = m * (m - 1) * _product_cost(size / 12**0.5, size / 12**0.5)
    return _FIXED_COST["resultant"] + m * (m + 1) * _product_cost(0, size) + pairs


def _norm_row_cost(dim: int, e: int, width: int, bits: int, scale: float) -> float:
    """A row read by the norm path off a state of dim integers of width bits
    at most, whose norm has `bits` bits, both times scale: the step and the
    reading, small entries times the state, then Bareiss on the e x e matrix
    of multiplication by 1 - f^n, whose k-th step takes two products and a
    division of k x k minors on (e - k)^2 entries.  A minor is taken at k
    times the state's bits, short of the norm's, with k at its root mean
    square over the entries."""
    steps = (e - 1) * e * (2 * e - 1) / 6
    minor = min(((e + 1) * (e * e + 1) / (5 * (2 * e - 1))) ** 0.5 * width, bits) * scale
    small = (dim * dim + e * dim + e * e) * _product_cost(0, width * scale)
    return _FIXED_COST["norm"] + small + steps * (2 * _product_cost(minor, minor) + _product_cost(minor, 2 * minor))


def _recurrence_polynomial(sums: list) -> list:
    """Coefficients below the leading 1, constant term first, of the monic Q
    of degree 2^m whose roots are the 2^m products of subsets of the roots of
    chi, from their power sums P_j = prod(1 + mu^j), j = 1..2^m.  The signed
    rows r_n are signed sums of the n-th powers of these roots, so they
    follow Q's recurrence."""
    return newton_coefficients([len(sums), *sums], len(sums))[:-1]


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
