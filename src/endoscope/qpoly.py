"""Dense univariate polynomials with exact rational coefficients.

A polynomial is one integer numerator over one denominator (FLINT's fmpq_poly
layout): num, a tuple of ints constant term first without trailing zeros, over
den > 0 with gcd(content(num), den) = 1; zero is ((), 1).  Arithmetic runs on
the integers, and division by a monic integer polynomial stays in Z.  The gcd
and the squarefree part run on integer polynomials modulo primes (Brown's
modular gcd, whose Z/p kernel factorq shares): one prime proves a squarefree
polynomial so.  This module also carries integer determinants (Bareiss),
resultants, Newton power sums, extensible in blocks, and their inverse (the
kernel of norms, traces, characteristic polynomials, composed products and
powers in the higher layers), Massey's shift-register synthesis of integer
linear recurrences on the same primes, the cyclotomic-order test, and the exact
real-root kernel: Sturm sequences count
real roots in an interval and read the sign of one polynomial at the real
roots of another, so every real-root decision of the higher layers (unit
circle, Salem, totally real, definiteness) is exact.  binary_power is the one
square-and-multiply loop behind every power in the library; numbers of any
length are printed and parsed in subquadratic time.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from math import gcd, inf, isinf, lcm, prod
from operator import mul

from .errors import NonSquarefreeInput, ValidationError

# the documented coefficient strings "n" and "n/d": an optional minus sign and
# decimal digits, so the length of the string bounds the size of the number
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

# digit runs up to this length are parsed by one int() call, below Python's
# 4300-digit limit on str-to-int conversion
_PARSE_SPLIT_DIGITS = 3000


def _parse_digits(s: str) -> int:
    """int(s) for a run of decimal digits of any length.

    int() is quadratic in the digits and refuses more than 4300 of them, so a
    long run is split in halves, both are parsed, and they are joined by one
    multiply with a cached power of ten: subquadratic, like exact_decimal.
    """
    ten_pows: dict[int, int] = {}

    def parse(t: str) -> int:
        if len(t) <= _PARSE_SPLIT_DIGITS:
            return int(t)
        low = len(t) // 2
        if low not in ten_pows:
            ten_pows[low] = 10**low
        return parse(t[:-low]) * ten_pows[low] + parse(t[-low:])

    return parse(s)


# ints up to this many bits (603 digits) are printed by int.__repr__, under any digit limit
_REPR_BITS = 2000
# ints up to this many bits are converted by one Decimal(n) call
_DECIMAL_SPLIT_BITS = 1 << 13


def exact_decimal(n: int) -> str:
    """str(n) for an int of any length: int.__repr__ up to 2000 bits, which
    no limit on int-to-str conversion can refuse, and above them Decimal,
    which prints the same digits and is exempt from that limit.

    Decimal(n) is quadratic in the digits, so a long n is split by bits, both
    halves are converted and joined by an exact Decimal multiply-add with a
    cached power of two: subquadratic, as Decimal multiplies large numbers
    by number-theoretic transforms.
    """
    if n.bit_length() <= _REPR_BITS:
        return int.__repr__(n)
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


def _rational_pair(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int, a Fraction or an "n"/"n/d" string."""
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c.numerator, c.denominator
    if isinstance(c, str):
        if not _RATIONAL.fullmatch(c):
            raise ValidationError(f"coefficient {c!r} is not of the form 'n' or 'n/d'")
        num, _, den = c.partition("/")
        d = _parse_digits(den) if den else 1
        if not d:
            raise ValidationError(f"coefficient {c!r} has a zero denominator")
        return (-_parse_digits(num[1:]) if num[0] == "-" else _parse_digits(num)), d
    raise ValidationError(f"not an exact rational coefficient: {c!r}")


class QPoly:
    """Immutable dense polynomial over the rationals: the integer numerator
    num over the positive denominator den, in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        pairs = [_rational_pair(c) for c in coeffs]
        den = lcm(*(d for _, d in pairs))
        p = _poly([n * (den // d) for n, d in pairs], den)
        object.__setattr__(self, "num", p.num)
        object.__setattr__(self, "den", p.den)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    def __reduce__(self):  # copy and pickle rebuild the value from num and den
        return _poly, (list(self.num), self.den)

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self) -> Fraction:
        return self[len(self.num) - 1]

    @property
    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def __iter__(self):
        """The coefficients, constant term first: p[i] is 0 past the degree,
        so iteration cannot rely on __getitem__ to end."""
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

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
        return _poly([-c for c in self.num], self.den)

    def __add__(self, other) -> QPoly:
        return _combine(self, self._coerce(other), 1)

    def __sub__(self, other) -> QPoly:
        return _combine(self, self._coerce(other), -1)

    def __mul__(self, other) -> QPoly:
        if isinstance(other, (int, Fraction)):
            return _poly([c * other.numerator for c in self.num], self.den * other.denominator)
        other = self._coerce(other)
        return _poly(_convolve(self.num, other.num), self.den * other.den)

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
        # s * num = q * other.num + r, so self = (q * other.den) / (s * den) * other + r / (s * den)
        q, r, s = _divmod_z(list(self.num), other.num)
        return _poly([c * other.den for c in q], s * self.den), _poly(r, s * self.den)

    def __floordiv__(self, other: QPoly) -> QPoly:
        return self.divmod(other)[0]

    def __mod__(self, other: QPoly) -> QPoly:
        return self.divmod(other)[1]

    def monic(self) -> QPoly:
        if self.is_zero or self.is_monic:
            return self
        # c/den over lc/den is c/lc
        lc = self.num[-1]
        return _poly([c if lc > 0 else -c for c in self.num], abs(lc))

    def gcd(self, other: QPoly) -> QPoly:
        """Monic greatest common divisor, by Brown's modular gcd on the
        primitive integer parts (_gcd_z)."""
        if self.is_zero or other.is_zero:
            return (other if self.is_zero else self).monic()
        if self.degree == 0 or other.degree == 0:
            return ONE
        return _poly(_gcd_z(self.clear_denominators()[1], other.clear_denominators()[1])[0]).monic()

    def derivative(self) -> QPoly:
        return _poly([i * c for i, c in enumerate(self.num)][1:], self.den)

    def __call__(self, x):
        """Horner evaluation at any value with + and * (Fraction, complex, QPoly)."""
        acc = 0 * x + self.lc
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose_mod(self, inner: QPoly, mod: QPoly) -> QPoly:
        """self(inner) mod mod by Horner's rule on the integer numerator of
        self: each step is one _mul_mod, the next coefficient added before
        the reduction."""
        acc, inner = ZERO, inner % mod
        for c in reversed(self.num):
            acc = _mul_mod(acc, inner, mod, c)
        return _poly(list(acc.num), acc.den * self.den)

    def pow_mod(self, n: int, mod: QPoly) -> QPoly:
        return binary_power(self % mod, n, ONE % mod, lambda a, b: _mul_mod(a, b, mod))

    # -- structure helpers ---------------------------------------------------

    def reciprocal(self) -> QPoly:
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return _poly(list(self.num[::-1]), self.den)

    def squarefree_part(self) -> QPoly:
        """self / gcd(self, self'), monic: the cofactor that _gcd_z proves,
        which is self itself once one prime gives a gcd of degree 0, or at
        once for degree at most 1 and for a quadratic of nonzero discriminant."""
        a = self.num
        if len(a) <= 2 or len(a) == 3 and a[1] * a[1] != 4 * a[0] * a[2]:
            return self.monic()
        ints = self.clear_denominators()[1]
        return _poly(_gcd_z(ints, self.derivative().clear_denominators()[1])[1]).monic()

    def clear_denominators(self) -> tuple[Fraction, list[int]]:
        """Returns (unit, ints) with self = unit * primitive integer polynomial.

        The integer polynomial is primitive with positive leading coefficient.
        """
        if self.is_zero:
            return Fraction(0), []
        g = gcd(*self.num) if self.num[-1] > 0 else -gcd(*self.num)
        return Fraction(g, self.den), [v // g for v in self.num]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[str]:
        return [f"{exact_decimal(c.numerator)}/{exact_decimal(c.denominator)}" for c in self.coeffs]


# the integer core: a QPoly is built from its fields without the constructor
_set_num, _set_den = QPoly.num.__set__, QPoly.den.__set__


def _poly(num: list[int], den: int = 1) -> QPoly:
    """The QPoly num/den for den > 0, in canonical form: trailing zeros
    dropped, the fraction in lowest terms (a gcd only when den > 1)."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    p = object.__new__(QPoly)
    _set_num(p, tuple(num))
    _set_den(p, den)
    return p


def _combine(a: QPoly, b: QPoly, sign: int) -> QPoly:
    """a + sign * b."""
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    out = [c * sa for c in a.num] + [0] * (len(b.num) - len(a.num))
    for i, c in enumerate(b.num):
        out[i] += c * sb
    return _poly(out, den)


def _convolve(a, b) -> list[int]:
    """The product of two integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mul_mod(a: QPoly, b: QPoly, m: QPoly, c: int = 0) -> QPoly:
    """a * b + c mod m for an int c, brought to canonical form once."""
    den = a.den * b.den
    num = _convolve(a.num, b.num)
    if c:
        num = num or [0]
        num[0] += c * den
    _, r, s = _divmod_z(num, m.num)
    return _poly(r, s * den)


def over_common_denominator(polys) -> tuple[list[list[int]], int]:
    """(nums, den): the numerators of the QPolys polys over den, the least
    common denominator of their coefficients."""
    den = lcm(*(p.den for p in polys))
    return [[c * (den // p.den) for c in p.num] for p in polys], den


def _divmod_z(a: list[int], b) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s * a = q * b + r, deg r < deg b, for integer polynomials;
    s > 0 grows only at steps that need it, so it is 1 when b is monic or
    divides a in Z[x].  a is overwritten, and r may keep trailing zeros."""
    db, lc = len(b) - 1, b[-1]
    q, s = [0] * (len(a) - db), 1
    for k in range(len(a) - db - 1, -1, -1):
        c = a[db + k]
        if not c:
            continue
        if lc != 1:
            scale = abs(lc) // gcd(c, lc)
            if scale != 1:
                a = [x * scale for x in a[: db + k + 1]]
                q = [x * scale for x in q]
                s *= scale
                c *= scale
            c //= lc
        q[k] = c
        for j in range(db):
            a[j + k] -= c * b[j]
    return q, a[:db], s


# ---------------------------------------------------------------------------
# integer polynomials modulo m (constant term first), and the gcd over Q that
# runs on them


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zmod(a, m: int) -> list[int]:
    return _trim([c % m for c in a])


def _zdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Division where lc(b) is invertible mod m."""
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, m)
    rem = [c % m for c in a]
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], _trim(rem)
    quot = [0] * (len(rem) - db)
    low = b[:db]  # the leading term cancels rem[db + k], which is not read again
    for k in range(len(rem) - db - 1, -1, -1):
        c = (rem[db + k] * inv) % m
        quot[k] = c
        if c:
            for j, bc in enumerate(low, k):
                rem[j] = (rem[j] - c * bc) % m
    return _trim(quot), _trim(rem[:db])


def _zmonic(a: list[int], m: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], -1, m)
    return _trim([(c * inv) % m for c in a])


def _zgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _zdivmod(a, b, p)[1]
    return _zmonic(a, p)


def _is_prime(n: int) -> bool:
    """Whether n < 3317044064679887385961981 is prime: no composite below
    3215031751 is a strong pseudoprime to all of the bases 2, 3, 5 and 7
    (Jaeschke, Math. Comp. 1993), and none below the bound to all primes up
    to 41 (Sorenson and Webster, Math. Comp. 2017)."""
    if n < 11:
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7) if n < 3215031751 else (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(p: int) -> int:
    p += 1
    while not _is_prime(p):
        p += 1
    return p


# the primes of the modular gcd, ascending from 2^29 so that residues are
# one machine digit; each is found once and kept
_GCD_PRIMES = [_next_prime(1 << 29)]


def _symmetric(a: list[int], m: int) -> list[int]:
    """The residues a mod m in (-m/2, m/2]."""
    half = m // 2
    return _trim([c - m if c > half else c for c in [x % m for x in a]])


def _zx_divides(h, g) -> list[int] | None:
    """The exact quotient g / h in Z[x], or None: h(0) must divide g(0), and
    the division must not scale or leave a remainder."""
    if g[0] and (not h[0] or g[0] % h[0]):
        return None
    q, r, s = _divmod_z(list(g), h)
    return q if s == 1 and not any(r) else None


def _gcd_z(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(g, a / g): the primitive gcd g of the primitive integer polynomials a
    and b of degree >= 1, positive leading coefficients, and the cofactor.

    Brown's dense modular gcd (J. ACM 1971; von zur Gathen and Gerhard,
    Modern Computer Algebra, 6.7).  Modulo a prime p dividing neither leading
    coefficient, deg gcd(a mod p, b mod p) >= deg g, so a gcd of degree 0
    modulo one such p proves g = 1 at once.  Otherwise a prime whose gcd has
    a larger degree than another's is unlucky and is dropped; the images of
    the smallest degree, each scaled to the leading coefficient
    gcd(lc a, lc b), are combined by the Chinese remainder theorem, and the
    candidate, the primitive part of the symmetric residues, is proved by
    exact division of a and b.  It is tried once its coefficients are 20
    bits below the modulus, which a wrong image rarely is.
    """
    c, lcs = gcd(a[-1], b[-1]), a[-1] * b[-1]
    size, image, modulus = len(a) + 1, [], 1  # 1 + the least degree seen, past deg a at first
    i = 0
    while True:
        if i == len(_GCD_PRIMES):
            _GCD_PRIMES.append(_next_prime(_GCD_PRIMES[-1]))
        p, i = _GCD_PRIMES[i], i + 1
        if lcs % p == 0:
            continue
        gp = _zgcd(_zmod(a, p), _zmod(b, p), p)
        if len(gp) == 1:
            return [1], a
        if len(gp) > size:
            continue
        gp = [x * c % p for x in gp]
        if len(gp) < size:
            size, image, modulus = len(gp), gp, p
        else:
            inv = pow(modulus, -1, p)
            image = [x + modulus * ((y - x) * inv % p) for x, y in zip(image, gp)]
            modulus *= p
        candidate = _symmetric(image, modulus)
        if max(abs(x) for x in candidate).bit_length() + 20 < modulus.bit_length():
            content = gcd(*candidate)
            candidate = [x // content for x in candidate]
            cofactor = _zx_divides(candidate, a)
            if cofactor is not None and _zx_divides(candidate, b) is not None:
                return candidate, cofactor


ZERO = _poly([])
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
    sign = prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pk - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def resultant(a: QPoly, b: QPoly) -> Fraction:
    """Res(a, b), by resultant_int on the numerators and denominators."""
    return Fraction(*resultant_int(a.num, a.den, b.num, b.den))


def resultant_int(a, da: int, b, db: int) -> tuple[int, int]:
    """(num, den > 0) with Res(a / da, b / db) = num / den, for integer
    coefficient sequences a and b, constant term first (a without trailing
    zeros, b with any), and denominators da, db > 0.

    With A = a / da of degree n, lc(A) = a[n] / da, and B = b / db of degree
    m, Res(A, B) = lc(A)^m det(multiplication by B on Q[x]/(A / lc(A))), the
    product of B over the roots of A times lc(A)^m; A / lc(A) is the monic
    (s a) / |a[n]|, s the sign of a[n].  The determinant is a fraction-free
    elimination (det_int_bareiss) on the integer columns of
    multiplication_columns, and b is reduced modulo a only when m >= n.
    """
    n, m = len(a) - 1, len(b) - 1
    while m >= 0 and not b[m]:
        m -= 1
    if n < 0 or m < 0:
        return 0, 1
    if n == 0:
        return a[0] ** m, da**m
    if m == 0:
        return b[0] ** n, db**n
    lc = a[n]
    monic = a if lc > 0 else [-c for c in a]
    cols, den = multiplication_columns(monic, abs(lc), b[: m + 1], db)
    return lc**m * det_int_bareiss(cols), da**m * den**n


def multiplication_columns(a, da: int, b, db: int) -> tuple[list[list[int]], int]:
    """(cols, den) with cols[k] / den the coefficients of x^k b / db mod a / da
    for k < n = deg a: the columns of the matrix of multiplication by b / db
    on Q[x]/(a / da), for a monic a / da (a[n] = da, n >= 1) and integer
    coefficient sequences a and b, constant term first.

    b is reduced modulo a only when deg b >= n.  A step x c mod a is the
    shift of c less its top coefficient times a / da, so column k is over
    db da^k; all columns are brought to den = db da^(n-1).
    """
    n = len(a) - 1
    if len(b) > n:
        _, b, scale = _divmod_z(list(b), a)
        db *= scale
    col = list(b) + [0] * (n - len(b))
    cols = [col]
    for _ in range(n - 1):
        top = col[-1]
        shifted = [0] + col[:-1] if da == 1 else [0] + [c * da for c in col[:-1]]
        col = [c - top * t for c, t in zip(shifted, a)]
        cols.append(col)
    if da == 1:
        return cols, db
    return [[c * da ** (n - 1 - k) for c in col] for k, col in enumerate(cols)], db * da ** (n - 1)


def _exact(c):
    """c as an int when it is an integral Fraction, so the Newton recurrences stay in ints."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def power_sums(p: QPoly, count: int) -> list:
    """Newton power sums [s_0, s_1, ..., s_count] of the roots of p.

    s_k is the sum of the k-th powers of the roots, with multiplicity; s_0 is
    the degree.  Computed exactly from Newton's identities on p.monic().
    """
    return extend_power_sums(p, [p.degree], count)


def extend_power_sums(p: QPoly, s: list, count: int) -> list:
    """s, the power sums [s_0, ..., s_j] of the roots of p, extended in place
    to s_count by the same recurrence as power_sums, and returned."""
    if p.degree < 0:
        raise ValidationError("the zero polynomial has no power sums")
    n = p.degree
    monic = p.monic()
    c = monic.num if monic.is_integral else monic.coeffs
    for k in range(len(s), count + 1):
        acc = k * c[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += c[n - i] * s[k - i]
        s.append(-acc)
    return s


def newton_coefficients(s, n: int) -> list:
    """Coefficients, constant term first, of the monic polynomial of degree n
    whose roots have power sums s[1..n]: Newton's identities solved for them.

    s may hold rationals or elements of any number field (anything closed
    under +, * and multiplication by a Fraction); an int sum divisible by k
    is divided in the integers.
    """
    c = [0] * n + [1]
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += c[n - i] * s[k - i]
        c[n - k] = -(acc // k) if isinstance(acc, int) and acc % k == 0 else _exact(acc * Fraction(-1, k))
    return c


def from_power_sums(s, n: int) -> QPoly:
    """The monic polynomial of degree n whose rational power sums are s[1..n];
    the inverse of power_sums."""
    return QPoly(newton_coefficients(s, n))


def berlekamp_massey(seq: list[int]) -> list[int] | None:
    """[1, c_1, ..., c_L]: the shortest linear recurrence a_n + c_1 a_(n-1) +
    ... + c_L a_(n-L) = 0, n = L, ..., len(seq) - 1, of the integers seq =
    a_0, a_1, ..., where it has integer coefficients and L <= len(seq) / 2,
    which makes it unique; else None.

    Massey's shift-register synthesis (IEEE Trans. Inf. Theory 15, 1969) runs
    modulo the primes of the modular gcd.  Modulo a prime p it finds the
    reduction of an integer answer, or a shorter recurrence when p is
    unlucky, so the images of the greatest L are combined by the Chinese
    remainder theorem, as in _gcd_z, and the candidate, the symmetric
    residues, is tried once its coefficients are 20 bits below the modulus
    and proved by annihilating seq exactly.  By Cramer's rule an integer
    answer is at most a minor of the L x L system it solves, and a modulus
    past Hadamard's bound on those minors for L = len(seq) / 2 ends the
    search.
    """
    half, bits = len(seq) // 2, max((a.bit_length() for a in seq), default=0)
    length, image, modulus, i = -1, [], 1, 0
    while True:
        if i == len(_GCD_PRIMES):
            _GCD_PRIMES.append(_next_prime(_GCD_PRIMES[-1]))
        p, i = _GCD_PRIMES[i], i + 1
        cp = _berlekamp_massey_mod([a % p for a in seq], p)
        if len(cp) - 1 > half:
            return None
        if len(cp) - 1 < length:
            continue
        if len(cp) - 1 > length:
            length, image, modulus = len(cp) - 1, cp, p
        else:
            inv = pow(modulus, -1, p)
            image = [x + modulus * ((y - x) * inv % p) for x, y in zip(image, cp)]
            modulus *= p
        top = modulus // 2
        candidate = [x - modulus if x > top else x for x in image]
        if max(map(abs, candidate)).bit_length() + 20 < modulus.bit_length() and not any(
            sum(map(mul, candidate, reversed(seq[n - length : n + 1]))) for n in range(length, len(seq))
        ):
            return candidate
        if modulus.bit_length() > half * (bits + half.bit_length()) + 22:
            return None


def _berlekamp_massey_mod(seq: list[int], p: int) -> list[int]:
    """Massey's synthesis over Z/p: [1, c_1, ..., c_L], residues mod p, for
    the shortest recurrence of seq, whose entries are residues mod p.  Where
    the current C has discrepancy d at n, and B, the C before the last change
    of L, had discrepancy b, C <- C - (d / b) x^k B, k the steps since."""
    c, prev, length, k, b_inv = [1], [1], 0, 1, 1
    for n in range(len(seq)):
        d = sum(map(mul, c, reversed(seq[n - length : n + 1]))) % p
        if not d:
            k += 1
            continue
        grown = max(length, n + 1 - length)
        new = c + [0] * (grown + 1 - len(c))
        f = d * b_inv % p
        for i, y in enumerate(prev, k):
            new[i] = (new[i] - f * y) % p
        if grown > length:
            prev, b_inv, length, k = c, pow(d, -1, p), grown, 1
        else:
            k += 1
        c = new
    return c


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending: trial division below
    2^16, then the part free of those primes is prime below 2^32 or if
    _is_prime proves it, else ValidationError: splitting it is unbounded work."""
    out, p, m = [], 2, n
    while p * p <= m:
        if p == 1 << 16:
            if m >= 3317044064679887385961981 or not _is_prime(m):
                raise ValidationError(f"cannot factor {n}: its part {m} free of primes below 2^16 is not proved prime")
            break
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


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
    if q.num[0] not in (1, -1):
        return None
    for k in range(1, 2 * d * d + 3):
        primes = _prime_factors(k)
        if k // prod(primes) * prod(p - 1 for p in primes) != d:  # Euler's phi(k)
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


def _remainder_sequence(a, b) -> list:
    """a, b, -rem(a, b), ... up to positive factors, each remainder made
    primitive: the Sturm chain of a when b = a'."""
    chain = [a]
    while b:
        chain.append(b)
        r = _poly(_divmod_z(list(a), b)[1]).num
        g = gcd(*r)
        a, b = b, [-x // g for x in r]
    return chain


def _sign_at(c: list[int], x) -> int:
    """Sign of the integer polynomial c at a rational x or at x = +-inf, for
    the Sturm chains."""
    if isinstance(x, float) and isinf(x):
        v = c[-1] if x > 0 or len(c) % 2 else -c[-1]
    else:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        num, den, v, dpow = x.numerator, x.denominator, 0, 1
        for a in reversed(c):  # den^deg times the value, by homogeneous Horner
            v, dpow = v * num + a * dpow, dpow * den
    return (v > 0) - (v < 0)


def _variations(chain: list[list[int]], x) -> int:
    signs = [s for s in (_sign_at(c, x) for c in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_sequence(p: QPoly) -> list[list[int]]:
    chain = _remainder_sequence(p.num, p.derivative().num)
    if p.is_zero or len(chain[-1]) > 1:
        raise NonSquarefreeInput("Sturm sequences need a nonzero squarefree polynomial")
    return chain


def count_real_roots(p: QPoly, lo=-inf, hi=inf) -> int:
    """Number of roots of the squarefree p in (lo, hi], lo and hi rational or +-inf."""
    chain = _sturm_sequence(p)
    return _variations(chain, lo) - _variations(chain, hi) if lo < hi else 0


def signs_at_real_roots(p: QPoly, *qs: QPoly) -> list[tuple[int, ...]]:
    """The signs of q for each q in qs at each real root of the squarefree p,
    one tuple per root, roots ascending.

    Bisection isolates each root in an interval (lo, hi) with ends that are
    not roots, where the sign variations of the remainder sequence of p and
    p'q drop by the sign of q at the root (Sylvester's theorem); the
    intervals serve every q.
    """
    chain = _sturm_sequence(p)
    queries = [_remainder_sequence(chain[0], (p.derivative() * q).num) for q in qs]
    bound = Fraction(1 << root_bound_exponent(chain[0]))
    signs, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        roots = _variations(chain, lo) - _variations(chain, hi)
        if roots == 1:
            signs.append(tuple(_variations(query, lo) - _variations(query, hi) for query in queries))
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
