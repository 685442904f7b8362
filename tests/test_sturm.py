"""The exact real-root kernel in qpoly (Sturm sequences) and the decisions
routed through it: unit circle, Salem, totally real and definiteness."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, strategies as st

from endoscope import algnum, classify, enclosures, lefschetz, numfield
from endoscope.classify import admissibility_check, is_salem_polynomial
from endoscope.enclosures import INSIDE, ON_CIRCLE, OUTSIDE, circle_root_count, unit_circle_status
from endoscope.errors import NonSquarefreeInput
from endoscope.lefschetz import EndomorphismSpec
from endoscope.numfield import NumberField, is_totally_real
from endoscope.qpoly import count_real_roots, from_ints, signs_at_real_roots, trace_polynomial
from endoscope.quaternion import TOTALLY_DEFINITE, TOTALLY_INDEFINITE, QuatAlgebra, definiteness

RATIONAL = st.fractions(min_value=-40, max_value=40, max_denominator=8)


def _sympy_poly(coeffs):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))


def _squarefree_sympy(coeffs):
    assume(coeffs[-1] != 0)
    sp = _sympy_poly(coeffs)
    assume(sp.degree() == 0 or sp.gcd(sp.diff()).degree() == 0)
    return sp


def _sympy_count(sp, lo, hi) -> int:
    """Roots of sp in (lo, hi]; sympy counts in the closed [lo, hi], None for infinite ends."""
    if not lo < hi:
        return 0
    if sp.degree() == 0:
        return 0
    low = None if lo == -inf else lo
    count = sp.count_roots(low, None if hi == inf else hi)
    return count - (low is not None and sp.eval(low) == 0)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=9), RATIONAL, RATIONAL)
def test_counts_match_sympy(coeffs, a, b):
    sp = _squarefree_sympy(coeffs)
    p = from_ints(*coeffs)
    for lo, hi in ((a, b), (min(a, b), max(a, b)), (-inf, a), (a, inf), (-inf, inf)):
        assert count_real_roots(p, lo, hi) == _sympy_count(sp, lo, hi), (lo, hi)


def test_counts_at_rational_roots():
    p = from_ints(-6, 11, -6, 1)  # (x - 1)(x - 2)(x - 3)
    assert count_real_roots(p) == 3
    assert count_real_roots(p, 1, 3) == 2  # (1, 3] holds 2 and 3
    assert count_real_roots(p, 0, 1) == 1
    assert count_real_roots(p, 3, 2) == 0
    with pytest.raises(NonSquarefreeInput):
        count_real_roots(from_ints(1, 2, 1))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_totally_real_matches_sympy(low):
    sympy = pytest.importorskip("sympy")
    coeffs = low + [1]
    sp = _squarefree_sympy(coeffs)
    p = from_ints(*coeffs)
    totally_real = len(sympy.real_roots(sp)) == sp.degree()
    assert (count_real_roots(p) == p.degree) == totally_real
    if sp.is_irreducible:
        assert is_totally_real(NumberField(p)) == totally_real


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(-9, 9), max_size=4), min_size=1, max_size=2),
)
def test_signs_at_roots_match_sympy(low, qs):
    sympy = pytest.importorskip("sympy")
    coeffs = low + [1]
    sp = _squarefree_sympy(coeffs)
    signs = signs_at_real_roots(from_ints(*coeffs), *(from_ints(*q) for q in qs))
    roots = sympy.real_roots(sp)
    want = []
    for q_coeffs in qs:
        q = sympy.Poly(list(reversed(q_coeffs)) or [0], sp.gen)
        want.append([sympy.sign(q.as_expr().subs(sp.gen, r).evalf(60, chop=True)) for r in roots])
    assert signs == list(zip(*want))


def test_trace_polynomial():
    # x^4 - x^3 - x^2 - x + 1 = x^2 ((x + 1/x)^2 - (x + 1/x) - 3)
    assert trace_polynomial(from_ints(1, -1, -1, -1, 1)) == from_ints(-3, -1, 1)
    lehmer = from_ints(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    t = trace_polynomial(lehmer)
    assert t.degree == 5
    assert count_real_roots(t, -2, 2) == 4 and count_real_roots(t, 2) == 1


def test_circle_root_census():
    assert circle_root_count(from_ints(1, -1, -1, -1, 1)) == 2
    assert circle_root_count(from_ints(1, 1, 1, 1, 1)) == 4  # Phi_5
    assert circle_root_count(from_ints(-1, 1)) == 1
    assert circle_root_count(from_ints(-2, 1)) == 0
    assert circle_root_count(from_ints(-3, -1, 1)) == 0  # not reciprocal
    lehmer = from_ints(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    assert sorted(s for _, s in unit_circle_status(lehmer)) == [INSIDE] + [ON_CIRCLE] * 8 + [OUTSIDE]


# ---------------------------------------------------------------------------
# no decision needs root isolation


@pytest.fixture
def no_isolation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("root isolation called")

    for module in (enclosures, numfield, lefschetz, algnum, classify):
        for name in ("isolate_roots", "_isolate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_decisions_without_isolation(no_isolation):
    assert is_totally_real(NumberField(from_ints(-1, -3, 0, 1)))
    assert not is_totally_real(NumberField(from_ints(1, 1, 1, 1, 1)))
    base = NumberField(from_ints(-13, 0, 1))
    rep = definiteness(QuatAlgebra(base, [-2, -2], [2]))
    assert rep.kind == TOTALLY_INDEFINITE and rep.per_embedding_signs == ((1, 1), (-1, 1))
    assert definiteness(QuatAlgebra(base, -1, [-4, 1])).kind == TOTALLY_DEFINITE
    # Phi_12: every root on the circle
    rep = is_salem_polynomial(from_ints(1, 0, -1, 0, 1))
    assert not rep.is_salem and rep.reason == "more than one root off the unit circle on some side"
    # T = y^2 + 3y + 1 has its root off [-2, 2] below -2: two negative real roots
    rep = is_salem_polynomial(from_ints(1, 3, 3, 3, 1))
    assert not rep.is_salem and rep.reason == "real roots are not positive"


def test_spectrum_isolates_each_factor_once(monkeypatch):
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    spec = EndomorphismSpec(algebra, algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4)), 4)
    admissibility_check(spec)
    seen = []
    isolate = enclosures._isolate

    def spy(p, *args, **kwargs):
        seen.append(p)
        return isolate(p, *args, **kwargs)

    for module in (enclosures, classify):
        monkeypatch.setattr(module, "_isolate", spy)
    spectrum = classify._decided(spec).spectrum
    assert seen == [spectrum.poly]
    assert sorted(s for _, s in spectrum.statuses) == [INSIDE, ON_CIRCLE, ON_CIRCLE, OUTSIDE]
