"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored constant-term first as a tuple of Fraction; the zero
polynomial is the empty tuple.  All arithmetic is exact.  This module also
carries integer determinants (Bareiss), the resultant (via Sylvester/Bareiss),
Newton power sums and their inverse (the kernel of norms, traces,
characteristic polynomials, composed products and powers in the higher
layers), the cyclotomic-order test, and the exact real-root kernel: Sturm
sequences count real roots in an interval and read the sign of one
polynomial at the real roots of another, so every real-root decision of the
higher layers (unit circle, Salem, totally real, definiteness) is exact.
binary_power is the one square-and-multiply loop behind every power in the
library, and exact_decimal prints ints of any length.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import NonSquarefreeInput, ValidationError

# the documented coefficient strings "n" and "n/d": an optional minus sign and
# decimal digits, so the length of the string bounds the size of the number
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _integer_multiple(p) -> tuple[int, list[int]]:
    """(den, ints): den the lcm of the denominators of p, ints the coefficients of den * p."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return den, [c.numerator * (den // c.denominator) for c in p.coeffs]


# ints up to this many bits are converted by one Decimal(n) call
_DECIMAL_SPLIT_BITS = 1 << 13


def exact_decimal(n: int) -> str:
    """str(n) for an int of any length: Decimal prints the same digits and is
    exempt from Python's limit on int-to-str conversion.

    Decimal(n) is quadratic in the digits, so a long n is split by bits, both
    halves are converted and joined by an exact Decimal multiply-add with a
    cached power of two: subquadratic, as Decimal multiplies large numbers
    by number-theoretic transforms.
    """
    if n.bit_length() <= _DECIMAL_SPLIT_BITS:
        return str(Decimal(n))
    two_pows: dict[int, Decimal] = {}

    def two_pow(k: int) -> Decimal:
        if k not in two_pows:
            small = k <= _DECIMAL_SPLIT_BITS
            two_pows[k] = Decimal(1 << k) if small else two_pow(k // 2) * two_pow(k - k // 2)
        return two_pows[k]

    def convert(m: int, bits: int) -> Decimal:
        if bits <= _DECIMAL_SPLIT_BITS:
            return Decimal(m)
        half = bits // 2
        return convert(m >> half, bits - half) * two_pow(half) + convert(m & ((1 << half) - 1), half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def binary_power(base, n: int, one, mul):
    """base^n for n >= 0 by square-and-multiply: mul(result, base) on each set
    bit of n, lowest first, and mul(base, base) between bits."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _fraction_str(c: Fraction) -> str:
    num = exact_decimal(c.numerator)
    return num if c.denominator == 1 else f"{num}/{exact_decimal(c.denominator)}"


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, str):
        if not _RATIONAL.fullmatch(c):
            raise ValidationError(f"coefficient {c!r} is not of the form 'n' or 'n/d'")
        # each digit run goes through Decimal, which Python's limit on
        # str-to-int conversion does not cover
        num, _, den = c.partition("/")
        try:
            return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
        except ZeroDivisionError:
            raise ValidationError(f"coefficient {c!r} has a zero denominator") from None
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise ValidationError(f"not an exact rational coefficient: {c!r}")


class QPoly:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_zero:
            return "QPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(_fraction_str(c))
            elif i == 1:
                terms.append(f"{_fraction_str(c)}*x" if c != 1 else "x")
            else:
                terms.append(f"{_fraction_str(c)}*x^{i}" if c != 1 else f"x^{i}")
        return "QPoly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> QPoly:
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> QPoly:
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(tuple(self[i] + other[i] for i in range(n)))

    def __sub__(self, other) -> QPoly:
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(tuple(self[i] - other[i] for i in range(n)))

    def __mul__(self, other) -> QPoly:
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return QPoly(tuple(c * f for c in self.coeffs))
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        if n < 0:
            raise ValidationError("negative polynomial power")
        return binary_power(self, n, ONE, QPoly.__mul__)

    @staticmethod
    def _coerce(other) -> QPoly:
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly((Fraction(other),))
        raise ValidationError(f"cannot coerce {other!r} to a polynomial")

    def divmod(self, other: QPoly) -> tuple[QPoly, QPoly]:
        """Exact long division; raises on a zero divisor."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < other.degree:
            return QPoly(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [Fraction(0)] * (dq + 1)
        dlc = other.lc
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] / dlc
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return QPoly(quot), QPoly(rem[: other.degree])

    def __floordiv__(self, other: QPoly) -> QPoly:
        return self.divmod(other)[0]

    def __mod__(self, other: QPoly) -> QPoly:
        return self.divmod(other)[1]

    def divides(self, other: QPoly) -> bool:
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero

    def monic(self) -> QPoly:
        if self.is_zero or self.is_monic:
            return self
        inv = 1 / self.lc
        return QPoly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: QPoly) -> QPoly:
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def xgcd(self, other: QPoly) -> tuple[QPoly, QPoly, QPoly]:
        """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
        r0, r1 = self, other
        s0, s1 = ONE, QPoly()
        t0, t1 = QPoly(), ONE
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero:
            return r0, s0, t0
        inv = 1 / r0.lc
        return r0 * inv, s0 * inv, t0 * inv

    def derivative(self) -> QPoly:
        return QPoly(tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))))

    def __call__(self, x):
        """Horner evaluation; works for Fraction, complex, mpmath and ComplexEnclosure values."""
        acc = 0 * x + self.lc
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose(self, inner: QPoly) -> QPoly:
        return self(inner)

    def compose_mod(self, inner: QPoly, mod: QPoly) -> QPoly:
        acc = QPoly()
        inner = inner % mod
        for c in reversed(self.coeffs):
            acc = (acc * inner + QPoly((c,))) % mod
        return acc

    def pow_mod(self, n: int, mod: QPoly) -> QPoly:
        return binary_power(self % mod, n, ONE % mod, lambda a, b: (a * b) % mod)

    # -- structure helpers ---------------------------------------------------

    def reciprocal(self) -> QPoly:
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return QPoly(tuple(reversed(self.coeffs)))

    def scale_roots(self, r: Fraction) -> QPoly:
        """Monic polynomial whose roots are r times the roots of self.

        Requires self monic: returns r^deg * p(x/r) expanded.
        """
        if not self.is_monic:
            raise ValidationError("scale_roots expects a monic polynomial")
        n = self.degree
        r = Fraction(r)
        return QPoly(tuple(self.coeffs[i] * r ** (n - i) for i in range(n + 1)))

    def squarefree_part(self) -> QPoly:
        if self.degree <= 0:
            return self.monic()
        return (self // self.gcd(self.derivative())).monic()

    def squarefree_decomposition(self) -> list[tuple[QPoly, int]]:
        """Yun's algorithm: returns [(g_i, i)] with self = lc * prod g_i^i."""
        p = self.monic()
        if p.degree <= 0:
            return []
        out: list[tuple[QPoly, int]] = []
        d = p.derivative()
        a = p.gcd(d)
        b = p // a
        c = d // a - b.derivative()
        i = 1
        while b.degree > 0:
            g = b.gcd(c)
            if g.degree > 0:
                out.append((g, i))
            b, c = b // g, (c // g) - (b // g).derivative()
            i += 1
        return out

    def clear_denominators(self) -> tuple[Fraction, list[int]]:
        """Returns (unit, ints) with self = unit * primitive integer polynomial.

        The integer polynomial is primitive with positive leading coefficient.
        """
        if self.is_zero:
            return Fraction(0), []
        den, ints = _integer_multiple(self)
        g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        return Fraction(g, den), [v // g for v in ints]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[str]:
        return [f"{exact_decimal(c.numerator)}/{exact_decimal(c.denominator)}" for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> QPoly:
        if not isinstance(data, (list, tuple)):
            raise ValidationError("polynomial JSON must be an array of coefficient strings")
        return cls(tuple(_as_fraction(c) for c in data))


ZERO = QPoly()
ONE = QPoly((1,))
X = QPoly((0, 1))


def from_ints(*coeffs: int) -> QPoly:
    """Convenience constructor, constant term first."""
    return QPoly(tuple(Fraction(c) for c in coeffs))


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


def resultant(a: QPoly, b: QPoly) -> Fraction:
    """Res(a, b), computed from the Sylvester matrix by fraction-free elimination."""
    if a.is_zero or b.is_zero:
        return Fraction(0)
    n, m = a.degree, b.degree
    if n == 0:
        return a.lc ** m
    if m == 0:
        return b.lc ** n
    (da, ai), (db, bi) = _integer_multiple(a), _integer_multiple(b)
    rows = [[0] * k + ai[::-1] + [0] * (m - 1 - k) for k in range(m)]
    rows += [[0] * k + bi[::-1] + [0] * (n - 1 - k) for k in range(n)]
    det = det_int_bareiss(rows)
    # Res(da*a, db*b) = da^m db^n Res(a, b)
    return Fraction(det, da**m * db**n)


def _exact(c):
    """c as an int when it is an integral Fraction, so the Newton recurrences stay in ints."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def power_sums(p: QPoly, count: int) -> list:
    """Newton power sums [s_0, s_1, ..., s_count] of the roots of p.

    s_k is the sum of the k-th powers of the roots, with multiplicity; s_0 is
    the degree.  Computed exactly from Newton's identities on p.monic().
    """
    if p.degree < 0:
        raise ValidationError("the zero polynomial has no power sums")
    n = p.degree
    c = [_exact(x) for x in p.monic().coeffs]
    s = [n]
    for k in range(1, count + 1):
        acc = k * c[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += c[n - i] * s[k - i]
        s.append(-acc)
    return s


def newton_coefficients(s, n: int) -> list:
    """Coefficients, constant term first, of the monic polynomial of degree n
    whose roots have power sums s[1..n]: Newton's identities solved for them.

    s may hold rationals or elements of any number field (anything closed
    under +, * and multiplication by a Fraction).
    """
    c = [0] * n + [1]
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += c[n - i] * s[k - i]
        c[n - k] = _exact(acc * Fraction(-1, k))
    return c


def from_power_sums(s, n: int) -> QPoly:
    """The monic polynomial of degree n whose rational power sums are s[1..n];
    the inverse of power_sums."""
    return QPoly(newton_coefficients(s, n))


def _euler_phi(k: int) -> int:
    result = k
    p = 2
    kk = k
    while p * p <= kk:
        if kk % p == 0:
            while kk % p == 0:
                kk //= p
            result -= result // p
        p += 1
    if kk > 1:
        result -= result // kk
    return result


def cyclotomic_order(q: QPoly) -> int | None:
    """Order k if the monic integral irreducible q is the k-th cyclotomic polynomial.

    Checks q | x^k - 1 for every k with phi(k) = deg q; phi(k) >= sqrt(k/2)
    bounds the search by 2*deg^2.  Returns None when q is not cyclotomic.
    The caller guarantees irreducibility.
    """
    if not q.is_monic or not q.is_integral:
        raise ValidationError("root-of-unity test needs a monic integer polynomial")
    d = q.degree
    if d < 1:
        return None
    if q.coeffs[0] not in (1, -1):
        return None
    for k in range(1, 2 * d * d + 3):
        if _euler_phi(k) != d:
            continue
        if X.pow_mod(k, q) == ONE % q:
            return k
    return None


# ---------------------------------------------------------------------------
# real roots: Sturm sequences (Basu-Pollack-Roy, Algorithms in Real Algebraic
# Geometry, ch. 2) on integer polynomials; only signs matter, so every
# remainder is scaled by a positive constant to a primitive one


def root_bound_exponent(ints: list[int]) -> int:
    """An exponent k >= 0, read off the coefficient bit lengths, with every
    root of the integer polynomial below 2^k in modulus.

    Fujiwara's bound |z| <= 2 max_i |a_{n-i}/a_n|^(1/i), with each ratio
    below 2^(bitlen(a_{n-i}) - bitlen(a_n) + 1).
    """
    n = len(ints) - 1
    top = ints[-1].bit_length()
    k = 0
    for i in range(1, n + 1):
        c = ints[n - i]
        if c:
            k = max(k, 1 + -(-(c.bit_length() - top + 1) // i))
    return k


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, -rem(a, b), ... up to positive factors."""
    chain = [a]
    while b:
        chain.append(b)
        r, scale = list(a), abs(b[-1])
        while len(r) >= len(b):
            c, shift = r[-1] * (scale // b[-1]), len(r) - len(b)
            r = [x * scale for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            while r and not r[-1]:
                r.pop()
        g = gcd(*r)
        a, b = b, [-x // g for x in r]
    return chain


def _sign_at(c: list[int], x) -> int:
    """Sign of the integer polynomial c at a rational x or at +-inf."""
    if x in (inf, -inf):
        v = c[-1] if x > 0 or len(c) % 2 else -c[-1]
    else:
        x, v, dpow = Fraction(x), 0, 1
        for a in reversed(c):  # den(x)^deg times the value, by homogeneous Horner
            v, dpow = v * x.numerator + a * dpow, dpow * x.denominator
    return (v > 0) - (v < 0)


def _variations(chain: list[list[int]], x) -> int:
    signs = [s for s in (_sign_at(c, x) for c in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_sequence(p: QPoly) -> list[list[int]]:
    chain = _remainder_sequence(_integer_multiple(p)[1], _integer_multiple(p.derivative())[1])
    if p.is_zero or len(chain[-1]) > 1:
        raise NonSquarefreeInput("Sturm sequences need a nonzero squarefree polynomial")
    return chain


def count_real_roots(p: QPoly, lo=-inf, hi=inf) -> int:
    """Number of roots of the squarefree p in (lo, hi], lo and hi rational or +-inf."""
    chain = _sturm_sequence(p)
    return _variations(chain, lo) - _variations(chain, hi) if lo < hi else 0


def signs_at_real_roots(q: QPoly, p: QPoly) -> list[int]:
    """The sign of q at each real root of the squarefree p, roots ascending.

    Bisection isolates each root in an interval (lo, hi) with ends that are
    not roots, where the sign variations of the remainder sequence of p and
    p'q drop by the sign of q at the root (Sylvester's theorem).
    """
    chain = _sturm_sequence(p)
    query = _remainder_sequence(chain[0], _integer_multiple(p.derivative() * q)[1])
    bound = Fraction(1 << root_bound_exponent(chain[0]))
    signs, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        roots = _variations(chain, lo) - _variations(chain, hi)
        if roots == 1:
            signs.append(_variations(query, lo) - _variations(query, hi))
        elif roots > 1:
            mid = (lo + hi) / 2
            while _sign_at(chain[0], mid) == 0:
                mid = (mid + hi) / 2
            todo += [(mid, hi), (lo, mid)]
    return signs


def trace_polynomial(q: QPoly) -> QPoly:
    """T with q = x^m T(x + 1/x), for a palindromic q of degree 2m: x^k + x^-k
    is D_k(x + 1/x), D_0 = 2, D_1 = y, D_(k+1) = y D_k - D_(k-1).  The roots
    x, 1/x of q over a root t of T lie on |x| = 1 iff t is real in [-2, 2]."""
    if q.degree < 0 or q.degree % 2 or q != q.reciprocal():
        raise ValidationError("trace polynomial needs a palindromic polynomial of even degree")
    m = q.degree // 2
    t, prev, cur = QPoly((q[m],)), QPoly((2,)), X
    for k in range(1, m + 1):
        t, prev, cur = t + cur * q[m + k], cur, X * cur - prev
    return t
