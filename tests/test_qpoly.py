import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from endoscope import factorq, qpoly
from endoscope.errors import ValidationError
from endoscope.factorq import factor
from endoscope.numfield import NFElement, NumberField
from endoscope.qpoly import (
    _DECIMAL_SPLIT_BITS,
    _PARSE_SPLIT_DIGITS,
    _parse_digits,
    ONE,
    QPoly,
    cyclotomic_order,
    exact_decimal,
    from_ints,
    from_power_sums,
    newton_coefficients,
    power_sums,
    resultant,
)

from .test_factorq import _sympy_factors

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(rationals, min_size=0, max_size=7).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_constructor_strips_leading_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0,)).is_zero
    assert QPoly(()).degree == -1


def test_divmod_identity_on_salem_quartic():
    p = from_ints(1, -1, -1, -1, 1)
    q = from_ints(-1, -1, 1)
    quot, rem = p.divmod(q)
    assert q * quot + rem == p
    assert rem.degree < q.degree


def test_gcd_common_factor():
    assert from_ints(-1, 0, 1).gcd(from_ints(-1, 1)) == from_ints(-1, 1)


def test_mul_identity():
    p = from_ints(-1, -1, 1)
    assert p * ONE == p


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        from_ints(1, 1).divmod(QPoly())


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(polys, nonzero_polys)
def test_division_identity(a, b):
    q, r = a.divmod(b)
    assert b * q + r == a
    assert r.is_zero or r.degree < b.degree


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = a.gcd(b)
    assert (a % g).is_zero and (b % g).is_zero
    assert g.is_monic


@given(polys)
def test_json_round_trip(p):
    assert QPoly(p.to_json()) == p


@pytest.mark.parametrize(
    "text, value", [("3", 3), ("-3", -3), ("007", 7), ("3/4", Fraction(3, 4)), ("-6/4", Fraction(-3, 2))]
)
def test_json_coefficient_forms(text, value):
    assert QPoly([text]) == QPoly((value,))


@pytest.mark.parametrize(
    "bad", ["1e999999", "1.5", "+1", " 1", "1_000", "3/-4", "-", "", "inf", "\u0661", True, 1.5]
)
def test_json_rejects_other_coefficient_forms(bad):
    with pytest.raises(ValidationError):
        QPoly([bad])


def test_reciprocal_and_scale_roots():
    p = from_ints(1, -3, 0, -3, 1)
    assert p.reciprocal() == p
    q = from_ints(-2, 0, 1)  # x^2 - 2, roots +-sqrt2
    scaled = q(from_ints(0, Fraction(1, 3))) * 9  # 3^2 q(x/3), roots +-3 sqrt2
    assert scaled == from_ints(-18, 0, 1)


def test_squarefree_decomposition():
    # factor reads the multiplicities off the squarefree part by exact division
    p = from_ints(-1, -1, 1) ** 2 * from_ints(-1, 1)
    assert p.squarefree_part() == from_ints(-1, -1, 1) * from_ints(-1, 1)
    decomp = factor(p)
    assert (from_ints(-1, 1), 1) in decomp
    assert (from_ints(-1, -1, 1), 2) in decomp


@given(
    st.lists(
        st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=4), st.integers(1, 3)), min_size=1, max_size=3
    ),
    st.integers(1, 5),
)
def test_squarefree_decomposition_rebuilds_the_polynomial(parts, lead):
    # squarefree inputs (one part of multiplicity 1, usually) and repeated
    # factors alike: grouping factor's output by multiplicity gives
    # p = lc(p) prod g_i^i with every g_i monic and squarefree, pairwise
    # coprime, and the multiplicities distinct; prod g_i is the squarefree part
    p = from_ints(lead)
    for coeffs, mult in parts:
        if any(coeffs[1:]):
            p = p * from_ints(*coeffs) ** mult
    groups: dict[int, QPoly] = {}
    for f, m in factor(p):
        groups[m] = groups.get(m, ONE) * f
    decomp = list(groups.items())
    rebuilt, once = QPoly((p.lc,)), ONE
    for i, g in decomp:
        assert g.is_monic and g.degree > 0 and g.gcd(g.derivative()).degree == 0
        rebuilt, once = rebuilt * g**i, once * g
    assert rebuilt == p
    assert once == p.squarefree_part()
    assert len({i for i, _ in decomp}) == len(decomp)
    for (_, g), (_, h) in itertools.combinations(decomp, 2):
        assert g.gcd(h).degree == 0


def test_factor_splits_the_squarefree_part_once(monkeypatch):
    # products of g_i^(m_i), and x^k alone or times a constant, whose body
    # after x^k is a constant: the squarefree part is factored once (not at
    # all for x^k), each multiplicity is read off by exact division, and the
    # result is sympy's factor_list
    sqrt2, sqrt3, golden = from_ints(-2, 0, 1), from_ints(-3, 0, 1), from_ints(-1, -1, 1)
    cases = [
        (golden**2 * from_ints(-1, 1), 1),
        (sqrt2**2 * sqrt3**2 * from_ints(5, 1) ** 3 * from_ints(1, 0, 1), 1),
        (QPoly((Fraction(-3, 2),)) * from_ints(1, 1, 1) ** 4 * golden * from_ints(0, 1) ** 2, 1),
        (from_ints(1, 0, 0, 0, 1) ** 2 * from_ints(576, 0, -960, 0, 352, 0, -40, 0, 1), 1),
        (from_ints(0, 0, 0, 1), 0),
        (QPoly((0, 0, Fraction(-5, 3))), 0),
    ]
    split, calls = factorq._factor_squarefree_z, []
    monkeypatch.setattr(factorq, "_factor_squarefree_z", lambda g: calls.append(g) or split(g))
    for p, splits in cases:
        calls.clear()
        assert factor(p) == _sympy_factors(p)
        assert len(calls) == splits


def test_resultant_known_values():
    # Res(x^2-2, x^2-3) = prod (a - b) over roots = 1
    assert resultant(from_ints(-2, 0, 1), from_ints(-3, 0, 1)) == 1
    # Res(x-2, x-3) = -1 (evaluate x-3 at 2)
    assert resultant(from_ints(-2, 1), from_ints(-3, 1)) == -1
    # shared root makes it vanish
    assert resultant(from_ints(-1, 1), from_ints(-1, 0, 1)) == 0


@given(nonzero_polys, nonzero_polys)
def test_resultant_vanishes_iff_common_factor(a, b):
    common = a.gcd(b).degree > 0
    assert (resultant(a, b) == 0) == common or a.degree == 0 or b.degree == 0


def test_cyclotomic_orders():
    assert cyclotomic_order(from_ints(1, 0, 1)) == 4
    assert cyclotomic_order(from_ints(-1, 1)) == 1
    assert cyclotomic_order(from_ints(1, 1)) == 2
    assert cyclotomic_order(from_ints(1, -1, 1)) == 6
    assert cyclotomic_order(from_ints(1, 1, 1, 1, 1)) == 5
    assert cyclotomic_order(from_ints(-1, -1, 1)) is None
    assert cyclotomic_order(from_ints(1, -1, -1, -1, 1)) is None


def test_compose_mod_matches_compose():
    p = from_ints(2, 0, 1)
    inner = from_ints(1, 1)
    mod = from_ints(-2, 0, 0, 1)
    assert p.compose_mod(inner, mod) == p(inner) % mod


def test_power_sums_known_values():
    # roots 1, 2, 3: s_k = 1 + 2^k + 3^k
    assert power_sums(from_ints(-6, 11, -6, 1), 5) == [3, 6, 14, 36, 98, 276]
    # roots of 2x^2 - 1 are +-1/sqrt2: s_2 = 1, s_4 = 1/2
    assert power_sums(from_ints(-1, 0, 2), 4) == [2, 0, 1, 0, Fraction(1, 2)]


@given(nonzero_polys)
@example(from_ints(7, 0, -3, 1, 1) ** 2)
@example(QPoly([Fraction(1, 3), Fraction(-5, 2), 4, 1]))
def test_power_sums_round_trip(p):
    n = p.degree
    assert from_power_sums(power_sums(p, n), n) == p.monic()


def _newton_by_fractions(s, n):
    # Newton's identities with every division by k done in Fraction
    c = [0] * n + [1]
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += c[n - i] * s[k - i]
        q = acc * Fraction(-1, k)
        c[n - k] = q.numerator if isinstance(q, Fraction) and q.denominator == 1 else q
    return c


def _typed(c):
    return [(type(x), x) for x in c]


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9) | st.lists(rationals, min_size=1, max_size=7))
def test_newton_coefficients_match_the_fraction_route(tail):
    # arbitrary int sums, where some divisions by k are exact and some are
    # not, and rational sums
    s, n = [len(tail)] + tail, len(tail)
    assert _typed(newton_coefficients(s, n)) == _typed(_newton_by_fractions(s, n))


def test_newton_coefficients_types():
    # integral power sums give ints; s = [2, 1, 0] needs 1/2
    assert _typed(newton_coefficients(power_sums(from_ints(-6, 11, -6, 1), 3), 3)) == _typed([-6, 11, -6, 1])
    assert _typed(newton_coefficients([2, 1, 0], 2)) == _typed([Fraction(1, 2), -1, 1])
    # sums in a number field take the Fraction route unchanged
    field = NumberField(from_ints(-13, 0, 1))
    x = field.gen()
    s = [3, x, 2 * x + 1, x * x - 5]
    got, want = newton_coefficients(s, 3), _newton_by_fractions(s, 3)
    assert got == want and all(isinstance(c, NFElement) for c in got[:3])


def test_exact_decimal_matches_decimal():
    rng = random.Random(20261018)
    cut = _DECIMAL_SPLIT_BITS
    samples = [0, 1, 10**4300, (1 << cut) - 1, 1 << cut, (1 << cut) + 1, (1 << 3 * cut) - 1]
    samples += [rng.getrandbits(rng.randrange(1, 340_000)) for _ in range(8)]  # up to about 10^5 digits
    for n in samples:
        for v in (n, -n):
            assert exact_decimal(v) == str(Decimal(v))


def test_coefficient_strings_past_the_digit_limit():
    big = "1" + "0" * 5000
    assert QPoly([big, f"-{big}/3", f"7/{big}"]).coeffs == (
        Fraction(10**5000),
        Fraction(-(10**5000), 3),
        Fraction(7, 10**5000),
    )


def test_parse_digits_matches_decimal():
    rng = random.Random(20261019)
    cut = _PARSE_SPLIT_DIGITS
    lengths = [1, cut - 1, cut, cut + 1, 2 * cut - 1, 2 * cut, 2 * cut + 1, 4 * cut + 3, 4301]
    lengths += [rng.randrange(1, 100_000) for _ in range(6)]  # up to about 10^5 digits
    for length in lengths:
        digits = "".join(rng.choice("0123456789") for _ in range(length))
        for s in (digits, "0" * cut + digits):  # leading zeros may fill a whole half
            assert _parse_digits(s) == int(Decimal(s)), length
    s = "".join(rng.choice("0123456789") for _ in range(3 * cut))
    assert QPoly([f"-{s}/{s[::-1]}"]) == QPoly((Fraction(-int(Decimal(s)), int(Decimal(s[::-1]))),))


# ---------------------------------------------------------------------------
# the modular gcd (Brown) against sympy, and its unlucky primes


def _sympy_poly(p: QPoly):
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def _from_sympy(f) -> QPoly:
    return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())])


def _big_poly(bits: int, degree: int) -> st.SearchStrategy:
    top = 1 << bits
    return st.lists(st.integers(-top, top), min_size=degree, max_size=degree).map(
        lambda cs: QPoly(cs + [top - 1])
    )


big_polys = st.tuples(st.integers(100, 300), st.integers(1, 7)).flatmap(lambda bd: _big_poly(*bd))


@given(big_polys, big_polys, st.one_of(st.none(), big_polys, st.lists(st.integers(-9, 9), min_size=2, max_size=4)))
def test_modular_gcd_matches_sympy_on_large_coefficients(a, b, common):
    # random pairs with 100- to 300-bit coefficients, coprime as a rule, and
    # the same pairs times a planted common factor, large or small
    if isinstance(common, list):
        common = QPoly(common)
    if common is not None and common.degree > 0:
        a, b = a * common, b * common
    got = a.gcd(b)
    assert got == _from_sympy(_sympy_poly(a).gcd(_sympy_poly(b)))
    assert common is None or common.degree < 1 or (got % common).is_zero
    assert a.squarefree_part() == _from_sympy(_sympy_poly(a).sqf_part())


def _gcd_primes_taken(monkeypatch) -> list[tuple[int, int]]:
    """(p, deg gcd mod p) for each prime the modular gcd takes."""
    taken, zgcd = [], qpoly._zgcd

    def spy(a, b, p):
        g = zgcd(a, b, p)
        taken.append((p, len(g) - 1))
        return g

    monkeypatch.setattr(qpoly, "_zgcd", spy)
    return taken


def test_a_prime_dividing_a_leading_coefficient_is_skipped(monkeypatch):
    p, q = qpoly._GCD_PRIMES[0], qpoly._next_prime(qpoly._GCD_PRIMES[0])
    a = from_ints(1, 1) * from_ints(-3, p)  # lc(a) = p
    b = from_ints(1, 1) * from_ints(5, 1) ** 2
    taken = _gcd_primes_taken(monkeypatch)
    assert a.gcd(b) == from_ints(1, 1)
    assert [prime for prime, _ in taken][0] == q


@pytest.mark.parametrize("want", [ONE, from_ints(1, 1), from_ints(2, 3, 1)], ids=repr)
@pytest.mark.parametrize("square", [1, 2])
def test_a_prime_dividing_the_resultant_is_unlucky_and_dropped(want, square, monkeypatch):
    # a = x want^square and b = (x + p) want, for the first prime p: their
    # resultant is a multiple of p, and modulo p both are divisible by x, so
    # the gcd there has one degree too many; the next prime decides
    p = qpoly._GCD_PRIMES[0]
    a, b = from_ints(0, 1) * want**square, from_ints(p, 1) * want
    taken = _gcd_primes_taken(monkeypatch)
    assert a.gcd(b) == want == _from_sympy(_sympy_poly(a).gcd(_sympy_poly(b)))
    assert taken[0] == (p, want.degree + 1)
    assert taken[1][1] == want.degree


def test_one_prime_proves_a_polynomial_squarefree(monkeypatch):
    # a degree-0 gcd of p and p' modulo one prime proves gcd(p, p') = 1, and
    # squarefree_part is then p itself, with no division
    p = QPoly([3**60 + k for k in range(20)] + [7])
    taken = _gcd_primes_taken(monkeypatch)
    assert p.squarefree_part() == p.monic()
    assert len(taken) == 1 and taken[0][1] == 0


def test_iteration_ends_at_the_degree():
    # p[i] reads 0 past the degree, so an iteration through __getitem__
    # alone would never end; islice keeps a failure from hanging
    p = QPoly((1, 2, 3))
    assert list(itertools.islice(p, 5)) == [1, 2, 3]
    assert list(QPoly()) == []
    assert QPoly(p) == p
    assert 3 in p and 5 not in p


def _product_of_one_minus(bases):
    """The coefficients of prod(1 - b x) over bases, constant term first."""
    c = [1]
    for b in bases:
        c = [x - b * y for x, y in zip(c + [0], [0] + c)]
    return c


@given(st.integers(1, 3), st.data())
@example(2, None)
def test_berlekamp_massey_finds_the_bases_that_survive(m, data):
    # a_n = sum of c_b b^n over at most 2^m (b, c_b), n < 2^(m+1): bases may
    # repeat and their coefficients add up, to 0 for some, so L = the number
    # of bases left may fall short of 2^m; the recurrence is prod(1 - b x) over them
    if data is None:  # 1 + 2 2^n - 2 2^n: the base 2 cancels, L = 1 < 4
        terms = [(1, 1), (2, 2), (2, -2)]
    else:
        terms = data.draw(st.lists(st.tuples(st.integers(-6, 6).filter(bool), st.integers(-3, 3)), max_size=2**m))
    total = {}
    for b, c in terms:
        total[b] = total.get(b, 0) + c
    seq = [sum(c * b**n for b, c in total.items()) for n in range(2 ** (m + 1))]
    assert qpoly.berlekamp_massey(seq) == _product_of_one_minus(b for b, c in total.items() if c)


def test_berlekamp_massey_drops_an_unlucky_prime():
    # a_n = (1 + p)^n - 1 for the first prime p vanishes modulo p, where the
    # shortest recurrence has L = 0; the next prime finds L = 2, and its
    # image alone is the answer, (1 - x)(1 - (1 + p) x)
    p = qpoly._GCD_PRIMES[0]
    seq = [(1 + p) ** n - 1 for n in range(6)]
    assert qpoly.berlekamp_massey(seq) == _product_of_one_minus([1, 1 + p])


def test_berlekamp_massey_answers_none_past_half_the_terms_or_off_the_integers():
    assert qpoly.berlekamp_massey([0, 0, 0, 1]) is None  # L = 4 > 4 / 2
    assert qpoly.berlekamp_massey([2, 1, 1]) is None  # a_n = a_(n-1) / 2
    assert qpoly.berlekamp_massey([2 * 3**n for n in range(6)]) == [1, -3]
    assert qpoly.berlekamp_massey([0] * 6) == [1]
