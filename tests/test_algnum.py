import ast
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from endoscope import algnum, enclosures
from endoscope.enclosures import ComplexEnclosure, isolate_roots
from endoscope.factorq import is_irreducible
from endoscope.qpoly import QPoly, from_ints

from .oracles import FractionDisk, reference_disk_product


def test_powers():
    golden = from_ints(-1, -1, 1)  # roots (1 +- sqrt5)/2
    phi = isolate_roots(golden, 128)[1]
    assert algnum.root_product(golden, [phi], 2).minpoly == from_ints(1, -3, 1)
    x2_plus_1 = from_ints(1, 0, 1)
    i_pos = isolate_roots(x2_plus_1, 128)[1]
    assert algnum.root_product(x2_plus_1, [i_pos], 2).minpoly == from_ints(1, 1)
    assert algnum.root_product(x2_plus_1, [i_pos], 4).as_fraction() == 1
    # a rational number refines to its exact point, the degree-1 root of isolate_roots
    one = algnum.root_product(x2_plus_1, [i_pos], 4).refined(512)
    assert one.as_fraction() == 1 and one.bits == 512
    assert one.enclosure == ComplexEnclosure(1, 0, 0) and one.enclosure.rad_num == 0
    assert algnum.root_product(golden, [], 1).as_fraction() == 1
    third = from_ints(Fraction(-2, 3), 1)
    cube = algnum.root_product(third, isolate_roots(third, 128), 3)
    assert cube.as_fraction() == Fraction(8, 27)


def test_root_product_salem_pairs():
    # the two unit-circle roots of the Salem quartic multiply to exactly 1
    quartic = from_ints(1, -1, -1, -1, 1)
    roots = isolate_roots(quartic, 128)
    prod = algnum.root_product(quartic, [e for e in roots if not e.is_real])
    assert prod.is_rational and prod.as_fraction() == 1
    # lead root times its reciprocal root is 1 as well
    prod = algnum.root_product(quartic, [e for e in roots if e.is_real])
    assert prod.as_fraction() == 1


def test_product_minpoly_irreducible_and_refinable():
    quartic = from_ints(1, -1, -1, -1, 1)
    square = algnum.root_product(quartic, [isolate_roots(quartic, 128)[3]], 2)
    assert is_irreducible(square.minpoly)
    tighter = square.refined(512)
    assert tighter.enclosure.radius <= square.enclosure.radius
    assert tighter.minpoly == square.minpoly


def test_root_product_folds_half_subsets():
    # 2k = n: x^4 - 6x^2 + 4 has the roots +-(sqrt10 +- sqrt2)/2, two of them
    # outside the circle, whose product is -(3 + sqrt5); N = p(0)^m is not 1
    quartic = from_ints(4, 0, -6, 0, 1)
    outside = [e for e in isolate_roots(quartic, 128) if abs(e.re) > 1]
    prod = algnum.root_product(quartic, outside)
    assert prod.minpoly == from_ints(4, 6, 1) and prod.enclosure.re < -5
    square = algnum.root_product(quartic, outside, 2)
    assert square.minpoly == from_ints(16, -28, 1) and square.enclosure.re > 27


# ---------------------------------------------------------------------------
# the power-sum kernels against sympy's resultant

monic_polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5).map(
    lambda low: QPoly([Fraction(c) for c in low] + [Fraction(1)])
)


def _sympy_monic(expr, x):
    sympy = pytest.importorskip("sympy")
    coeffs = sympy.Poly(expr, x).monic().all_coeffs()
    return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


def _sympy_composed_product(pa, pb):
    """prod (x - a*b) over the roots a of pa, b of pb: Res_y(pa(y), y^deg pb * pb(x/y))."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    a = sum(int(c) * y**i for i, c in enumerate(pa.coeffs))
    b = sympy.expand(y**pb.degree * sum(int(c) * (x / y) ** i for i, c in enumerate(pb.coeffs)))
    return _sympy_monic(sympy.resultant(a, b, y), x)


@given(monic_polys, st.integers(min_value=1, max_value=9))
def test_exterior_power_of_one_root_matches_sympy(p, m):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    a = sum(int(c) * y**i for i, c in enumerate(p.coeffs))
    assert algnum.exterior_power(p, 1, m) == _sympy_monic(sympy.resultant(a, x - y**m, y), x)


@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
    st.data(),
    st.integers(min_value=1, max_value=3),
)
def test_exterior_power_matches_subset_products(roots, data, m):
    n = len(roots)
    k = data.draw(st.one_of(st.just(n // 2), st.integers(0, n)))  # n // 2 covers 2k = n
    p = QPoly([1])
    for r in roots:
        p = p * from_ints(-r, 1)
    direct = QPoly([1])
    for subset in combinations(roots, k):
        direct = direct * from_ints(-prod(r**m for r in subset), 1)
    assert algnum.exterior_power(p, k, m) == direct


@given(monic_polys)
def test_exterior_squares_make_the_self_product(p):
    assert algnum.exterior_power(p, 2) ** 2 * algnum.exterior_power(p, 1, 2) == _sympy_composed_product(p, p)


def test_select_root_isolates_only_the_factors_that_hit(monkeypatch):
    # the target sqrt2 sits in a disk of radius 1 at 128 bits, which also
    # holds sqrt3, and of radius 1/8 at 256 bits; x - 5 misses both disks
    sqrt2 = isolate_roots(from_ints(-2, 0, 1), 256)[1]
    calls = []

    def counted(q, bits):
        calls.append((q, bits))
        return enclosures._isolate(q, bits)

    def disk_of(bits):
        return ComplexEnclosure(sqrt2.re, 0, Fraction(1) if bits == 128 else Fraction(1, 8))

    monkeypatch.setattr(algnum, "_isolate", counted)
    candidates = [from_ints(-2, 0, 1), from_ints(-3, 0, 1), from_ints(-5, 1)]
    q, e, bits = algnum._select_root(candidates, disk_of, 128)
    assert q == from_ints(-2, 0, 1) and FractionDisk.of(e).contains_point(sqrt2.re, 0) and bits == 256
    assert len(calls) == 5
    assert {q for q, b in calls if b == 256} == {from_ints(-2, 0, 1), from_ints(-3, 0, 1)}


def test_isolate_roots_runs_only_in_select_root():
    # one isolate-meet-double loop: refined and root_product both go through it
    tree = ast.parse(Path(algnum.__file__).read_text(encoding="utf-8"))
    owners = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "_isolate"
    ]
    assert owners == ["_select_root"]


def test_refined_factors_nothing(monkeypatch):
    # refined re-pins the number on its own minimal polynomial; root_product
    # factors the polynomials it builds, which keeps the spy live
    golden = from_ints(-1, -1, 1)
    phi = algnum.AlgebraicNumber(golden, isolate_roots(golden, 128)[1])
    factor, calls = algnum.factorq.factor, []
    monkeypatch.setattr(algnum.factorq, "factor", lambda p: calls.append(p) or factor(p))
    tighter = phi.refined(512)
    assert calls == []
    assert tighter.minpoly == golden and tighter.bits == 512 and tighter.enclosure.meets(phi.enclosure)
    assert tighter.enclosure.rad_num * phi.enclosure.den < phi.enclosure.rad_num * tighter.enclosure.den
    algnum.root_product(golden, [phi.enclosure], 2)
    assert calls


# ---------------------------------------------------------------------------
# the integer disk kernel against the Fraction disk reference: every root
# selection returns the same (minpoly, enclosure, bits)


def _selections(monkeypatch, run, reference: bool):
    """run()'s result and every (minpoly, enclosure, bits) that _select_root
    returned meanwhile, with target disks from the library's integer kernel or
    from oracles.reference_disk_product."""
    made, select = [], algnum._select_root

    def recording(candidates, disk_of, bits):
        made.append(select(candidates, disk_of, bits))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(algnum, "_select_root", recording)
        if reference:
            patch.setattr(algnum, "disk_product", reference_disk_product)
        result = run()
    return (result.minpoly, result.enclosure, result.bits), made


def _same_selections(monkeypatch, run):
    kernel = _selections(monkeypatch, run, False)
    assert kernel[1] and kernel == _selections(monkeypatch, run, True)


@pytest.mark.parametrize("index", range(3))
def test_published_gammas_select_as_the_reference(monkeypatch, index):
    from endoscope.classify import _decided
    from endoscope.cli import _published_rows

    # a fresh spec per run: the spec keeps classify's record, gamma with it
    _same_selections(monkeypatch, lambda: _decided(_published_rows()[index]["spec"]).gamma)


def test_exterior_power_selects_as_the_reference(monkeypatch):
    # k = 2 of the n = 5 roots of x^5 - x - 1, m = 3: a degree-10 exterior power, not folded
    quintic = from_ints(-1, -1, 0, 0, 0, 1)
    roots = isolate_roots(quintic, 128)[1:3]
    _same_selections(monkeypatch, lambda: algnum.root_product(quintic, roots, 3))


def test_folded_root_product_selects_as_the_reference(monkeypatch):
    # 2k = n: the two roots of x^4 - 6x^2 + 4 outside the circle, squared
    quartic = from_ints(4, 0, -6, 0, 1)
    outside = [e for e in isolate_roots(quartic, 128) if abs(e.re) > 1]
    _same_selections(monkeypatch, lambda: algnum.root_product(quartic, outside, 2))

