from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from endoscope import algnum
from endoscope.enclosures import isolate_roots
from endoscope.factorq import is_irreducible
from endoscope.qpoly import QPoly, from_ints


def root_of(poly, index, bits=128):
    return algnum.from_root(poly, isolate_roots(poly, bits)[index], bits)


def test_product_of_square_roots():
    sqrt2 = root_of(from_ints(-2, 0, 1), 1)  # +sqrt2
    sqrt3 = root_of(from_ints(-3, 0, 1), 1)  # +sqrt3
    prod = algnum.product(sqrt2, sqrt3)
    assert prod.minpoly == from_ints(-6, 0, 1)
    assert prod.enclosure.re > 2 and prod.enclosure.is_real


def test_product_collapses_to_rational():
    i_pos = root_of(from_ints(1, 0, 1), 1)
    i_neg = root_of(from_ints(1, 0, 1), 0)
    prod = algnum.product(i_pos, i_neg)  # i * (-i) = 1
    assert prod.is_rational and prod.as_fraction() == 1
    sqrt2 = root_of(from_ints(-2, 0, 1), 1)
    sq = algnum.product(sqrt2, sqrt2)
    assert sq.is_rational and sq.as_fraction() == 2


def test_rational_scaling_shortcut():
    sqrt2 = root_of(from_ints(-2, 0, 1), 1)
    scaled = algnum.product(algnum.from_rational(3), sqrt2)
    assert scaled.minpoly == from_ints(-18, 0, 1)
    zero = algnum.product(algnum.from_rational(0), sqrt2)
    assert zero.is_rational and zero.as_fraction() == 0


def test_powers():
    golden = root_of(from_ints(-1, -1, 1), 1)  # (1+sqrt5)/2
    sq = algnum.power(golden, 2)
    assert sq.minpoly == from_ints(1, -3, 1)
    i_pos = root_of(from_ints(1, 0, 1), 1)
    assert algnum.power(i_pos, 2).minpoly == from_ints(1, 1)
    assert algnum.power(i_pos, 4).as_fraction() == 1
    assert algnum.power(golden, 0).as_fraction() == 1
    assert algnum.power(algnum.from_rational(Fraction(2, 3)), 3).as_fraction() == Fraction(8, 27)


def test_product_many_salem_pairs():
    # the two unit-circle roots of the Salem quartic multiply to exactly 1
    quartic = from_ints(1, -1, -1, -1, 1)
    roots = isolate_roots(quartic, 128)
    circle = [algnum.from_root(quartic, e) for e in roots if not e.is_real]
    prod = algnum.product_many(circle)
    assert prod.is_rational and prod.as_fraction() == 1
    # lead root times its reciprocal root is 1 as well
    reals = [algnum.from_root(quartic, e) for e in roots if e.is_real]
    prod = algnum.product_many(reals)
    assert prod.as_fraction() == 1


def test_product_minpoly_irreducible_and_refinable():
    lead = root_of(from_ints(1, -1, -1, -1, 1), 3)
    square = algnum.power(lead, 2)
    assert is_irreducible(square.minpoly)
    tighter = square.refined(512)
    assert tighter.enclosure.radius <= square.enclosure.radius
    assert tighter.minpoly == square.minpoly


# ---------------------------------------------------------------------------
# the power-sum kernels against sympy's resultant

monic_polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5).map(
    lambda low: QPoly([Fraction(c) for c in low] + [Fraction(1)])
)


def _sympy_monic(expr, x):
    sympy = pytest.importorskip("sympy")
    coeffs = sympy.Poly(expr, x).monic().all_coeffs()
    return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


@given(monic_polys, monic_polys)
def test_product_resultant_matches_sympy(pa, pb):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    a = sum(int(c) * y**i for i, c in enumerate(pa.coeffs))
    b = sympy.expand(y**pb.degree * sum(int(c) * (x / y) ** i for i, c in enumerate(pb.coeffs)))
    assert algnum._product_resultant(pa, pb) == _sympy_monic(sympy.resultant(a, b, y), x)


@given(monic_polys, st.integers(min_value=1, max_value=9))
def test_power_polynomial_matches_sympy(p, k):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    a = sum(int(c) * y**i for i, c in enumerate(p.coeffs))
    assert algnum._power_polynomial(p, k) == _sympy_monic(sympy.resultant(a, x - y**k, y), x)
