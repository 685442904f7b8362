from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from endoscope import factorq
from endoscope.errors import DegreeCapExceeded, ValidationError
from endoscope.factorq import factor, is_irreducible
from endoscope.qpoly import QPoly, from_ints


def reassemble(p, factors):
    out = QPoly((p.lc,))
    for q, mult in factors:
        out = out * q**mult
    return out


def test_cyclotomic_split():
    facs = factor(from_ints(-1, 0, 0, 0, 1))
    assert facs == [
        (from_ints(-1, 1), 1),
        (from_ints(1, 1), 1),
        (from_ints(1, 0, 1), 1),
    ]


def test_salem_quartics_irreducible():
    assert is_irreducible(from_ints(1, -1, -1, -1, 1))
    assert is_irreducible(from_ints(1, -7, -1, -7, 1))
    assert is_irreducible(from_ints(1, -3, 0, -3, 1))


def test_square_round_trip():
    p = from_ints(-1, -1, 1) ** 2
    facs = factor(p)
    assert facs == [(from_ints(-1, -1, 1), 2)]
    assert reassemble(p, facs) == p


def test_power_of_x_and_content():
    p = QPoly((0, 0, Fraction(3, 2), Fraction(3, 2)))  # (3/2) x^2 (x + 1)
    facs = factor(p)
    assert (from_ints(0, 1), 2) in facs
    assert (from_ints(1, 1), 1) in facs
    assert reassemble(p, facs) == p


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        factor(QPoly([1] + [0] * 64 + [1]))


def test_zero_rejected():
    with pytest.raises(ValidationError):
        factor(QPoly())


def test_lehmer_polynomial_irreducible():
    lehmer = from_ints(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    assert is_irreducible(lehmer)


def test_big_cyclotomic_product():
    # phi_12 * phi_5 * (x - 3)
    p = from_ints(1, 0, -1, 0, 1) * from_ints(1, 1, 1, 1, 1) * from_ints(-3, 1)
    facs = factor(p)
    assert (from_ints(1, 0, -1, 0, 1), 1) in facs
    assert (from_ints(1, 1, 1, 1, 1), 1) in facs
    assert (from_ints(-3, 1), 1) in facs
    assert reassemble(p, facs) == p


def test_degree_23_mixed_product():
    parts = [
        from_ints(1, -1, -1, -1, 1),
        from_ints(-1, -1, 0, 0, 0, 1),
        from_ints(1, 1, 0, 0, 0, 0, 1),
        from_ints(-1, -3, 0, 1),
        from_ints(7, -11, 1),
    ]
    p = QPoly((Fraction(6),))
    for q in parts[:3]:
        p = p * q
    p = p * parts[3] ** 2 * parts[4]
    facs = factor(p)
    assert sorted((q.degree, m) for q, m in facs) == [(2, 1), (3, 2), (4, 1), (5, 1), (6, 1)]
    assert reassemble(p, facs) == p


def test_swinnerton_dyer_degree_8():
    # minimal polynomial of sqrt2 + sqrt3 + sqrt5: irreducible over Q but a
    # product of low-degree factors modulo every prime, the classic
    # recombination stress case
    sd = from_ints(576, 0, -960, 0, 352, 0, -40, 0, 1)
    assert is_irreducible(sd)


@pytest.mark.parametrize("p", [from_ints(1, 0, 0, 0, 1), from_ints(1, 0, -10, 0, 1)], ids=repr)
def test_a_split_into_halves_is_tried_once(p, monkeypatch):
    # x^4 + 1 and x^4 - 10x^2 + 1 split into two quadratics at the chosen
    # prime; a subset of half the factors and its complement make the same
    # split, so one trial division proves them irreducible
    trials, divides = [], factorq._zx_divides
    monkeypatch.setattr(factorq, "_zx_divides", lambda h, g: trials.append(h) or divides(h, g))
    assert is_irreducible(p)
    assert len(trials) == 1


small_ints = st.integers(min_value=-9, max_value=9)
irreducible_pool = [
    from_ints(1, 1),
    from_ints(-2, 1),
    from_ints(1, 0, 1),
    from_ints(-2, 0, 1),
    from_ints(-1, -1, 1),
    from_ints(1, -1, 1),
    from_ints(-1, -3, 0, 1),
    from_ints(1, -1, -1, -1, 1),
]


@given(
    st.lists(st.sampled_from(irreducible_pool), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0),
)
def test_factor_reconstructs_products(parts, mult, lead):
    p = QPoly((Fraction(lead),))
    for part in parts:
        p = p * part**mult
    facs = factor(p)
    assert reassemble(p, facs) == p
    for q, _ in facs:
        assert q.is_monic and is_irreducible(q)


@given(st.lists(small_ints, min_size=2, max_size=8))
def test_factor_random_integer_polys(coeffs):
    p = QPoly([Fraction(c) for c in coeffs])
    if p.degree < 1:
        return
    facs = factor(p)
    assert reassemble(p, facs) == p


# ---------------------------------------------------------------------------
# against sympy's factor_list


def _sympy_factors(p: QPoly) -> list[tuple[QPoly, int]]:
    """sympy's monic factors and multiplicities, in factor's order."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, facs = sympy.factor_list(sympy.Poly(coeffs, x, domain="QQ"))
    out = [(QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())]), m) for f, m in facs]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


@pytest.mark.parametrize(
    "p",
    [
        from_ints(1, 0, 0, 0, 1),  # x^4 + 1: irreducible, split modulo every prime
        from_ints(-2, 0, 1) * from_ints(-3, 0, 1),
        from_ints(576, 0, -960, 0, 352, 0, -40, 0, 1) * from_ints(1, 0, 0, 0, 1) ** 2,
        QPoly((Fraction(-6),)) * from_ints(-2, 0, 1) ** 2 * from_ints(-3, 0, 1) * from_ints(-5, 0, 1),
    ],
    ids=repr,
)
def test_factor_matches_sympy_fixed(p):
    # no prime among the first four leaves these irreducible, so the chosen
    # prime's split, the lifting and the recombination all run
    assert factor(p) == _sympy_factors(p)


factor_parts = st.one_of(
    st.sampled_from(irreducible_pool),
    st.lists(small_ints, min_size=2, max_size=6).map(lambda c: from_ints(*c)),
)


@given(
    st.lists(st.tuples(factor_parts, st.integers(min_value=1, max_value=3)), min_size=1, max_size=4),
    st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0),
)
def test_factor_matches_sympy(parts, lead):
    p = QPoly((Fraction(lead),))
    for part, mult in parts:
        p = p * part**mult
    if p.is_zero or p.degree < 1:
        return
    assert factor(p) == _sympy_factors(p)


# ---------------------------------------------------------------------------
# answers proved early: quadratics, squarefree bodies and the prime search

SD16 = from_ints(46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0, 1)
X4_PLUS_1, SQRT2_PLUS_SQRT3 = from_ints(1, 0, 0, 0, 1), from_ints(1, 0, -10, 0, 1)


def _sympy_irreducible(p: QPoly) -> bool:
    facs = _sympy_factors(p)
    return len(facs) == 1 and facs[0][1] == 1


@pytest.mark.parametrize(
    "p",
    [
        from_ints(1, 5, 6),  # (2x + 1)(3x + 1), discriminant 1
        from_ints(9, -12, 4),  # (2x - 3)^2, discriminant 0
        from_ints(5, 3, 2),  # discriminant -31
        from_ints(-7, 0, 3),  # discriminant 84
        from_ints(-8, 2, 15),  # (3x - 2)(5x + 4), discriminant 484
        QPoly((Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4))),
        QPoly((Fraction(-9, 2), 0, Fraction(1, 2))),  # (x^2 - 9) / 2
    ],
    ids=repr,
)
def test_non_monic_quadratics_match_sympy(p):
    assert factor(p) == _sympy_factors(p)
    assert is_irreducible(p) == _sympy_irreducible(p)


@given(st.integers(-60, 60).filter(bool), st.integers(-60, 60), st.integers(-60, 60))
def test_quadratic_irreducibility_is_read_off_the_discriminant(a, b, c):
    p = from_ints(c, b, a)
    assert is_irreducible(p) == _sympy_irreducible(p)


@pytest.mark.parametrize(
    "p",
    [
        X4_PLUS_1,
        SQRT2_PLUS_SQRT3,
        X4_PLUS_1 * SQRT2_PLUS_SQRT3,
        X4_PLUS_1**2 * SQRT2_PLUS_SQRT3,
        QPoly((Fraction(-3, 7),)) * X4_PLUS_1 * SQRT2_PLUS_SQRT3**3 * from_ints(0, 1),
        SD16,
        SD16 * X4_PLUS_1,
    ],
    ids=repr,
)
def test_split_everywhere_inputs_match_sympy(p):
    # x^4 + 1, x^4 - 10x^2 + 1 and SD16 split modulo every prime
    assert factor(p) == _sympy_factors(p)
    assert is_irreducible(p) == _sympy_irreducible(p)


@pytest.mark.parametrize("p, prime", [(X4_PLUS_1, 3), (SQRT2_PLUS_SQRT3, 5)], ids=repr)
def test_two_modular_factors_end_the_prime_search(p, prime, monkeypatch):
    # two quadratics modulo the first good prime: recombination is one trial
    # division, so no further prime is factored
    primes, ddf = [], factorq._ddf
    monkeypatch.setattr(factorq, "_ddf", lambda f, q: primes.append(q) or ddf(f, q))
    assert is_irreducible(p)
    assert primes == [prime]


def test_a_squarefree_body_is_not_divided(monkeypatch):
    # the gcd proves the body squarefree, so no multiplicity is read by division
    divisions, divmod_ = [], QPoly.divmod
    monkeypatch.setattr(QPoly, "divmod", lambda a, b: divisions.append(b) or divmod_(a, b))
    assert factor(SD16) == [(SD16, 1)]
    assert factor(from_ints(0, 0, 3, 2)) == [(from_ints(0, 1), 2), (from_ints(Fraction(3, 2), 1), 1)]
    assert divisions == []
