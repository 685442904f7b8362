"""Acceptance gate: one test per criterion, each printing a PASS line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Randomized suites use seeded generators so the gate is deterministic.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from endoscope import algnum, classify
from endoscope.classify import (
    EXPONENTIAL_PURE,
    PERIODIC,
    admissibility_check,
    classify_growth,
    entropy,
    is_automorphism,
    is_salem_polynomial,
    rational_eigenvalues,
    structure_certificate_for,
)
from endoscope.cli import main as cli_main
from endoscope.enclosures import ON_CIRCLE, OUTSIDE, isolate_roots, unit_circle_status
from endoscope.errors import DegreeCapExceeded, EndoscopeError
from endoscope.factorq import DEGREE_CAP, factor
from endoscope.lefschetz import (
    EndomorphismSpec,
    companion_oracle,
    fixed_points_exact,
)
from endoscope.numfield import NumberField, rationals_field
from endoscope.qpoly import QPoly, cyclotomic_order, from_ints
from endoscope.quaternion import QuatAlgebra

from .oracles import FractionDisk, eigenvalue_counts, fraction_to_mpf


def _ok(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def salem_unit_spec():
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    f = algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    return EndomorphismSpec(algebra, f, 4)


def field_spec(coeffs, element, g):
    field = NumberField(from_ints(*coeffs))
    return EndomorphismSpec(field, field.element(element), g)


# ---------------------------------------------------------------------------
# criterion 1: the published sqrt13 construction, under one second


def test_criterion_1_published_construction():
    start = time.perf_counter()
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    f = algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    spec = EndomorphismSpec(algebra, f, 4)

    from endoscope.quaternion import definiteness

    assert definiteness(algebra).kind == "TotallyIndefinite"
    assert f.reduced_norm() == base.element(1)
    charpoly = f.reduced_charpoly_q()
    assert charpoly == from_ints(1, -1, -1, -1, 1)
    assert cyclotomic_order(charpoly) is None
    assert is_automorphism(spec) is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _ok(1, f"sqrt13 construction reproduced in {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 2: Salem suite with certified tolerances


SALEM_QUARTICS = (
    from_ints(1, -1, -1, -1, 1),
    from_ints(1, -3, 0, -3, 1),
    from_ints(1, -7, -1, -7, 1),
)


def test_criterion_2_salem_suite(capsys):
    tol = Fraction(1, 10**10)
    for quartic in SALEM_QUARTICS:
        report = is_salem_polynomial(quartic)
        assert report.is_salem, quartic
        # reciprocity is exact, so the two real roots multiply to exactly 1
        assert quartic == quartic.reciprocal()
        statuses = unit_circle_status(quartic)
        circle = [e for e, s in statuses if s == ON_CIRCLE]
        assert len(circle) == 2
        for e in circle:
            # | |mu| - 1 | <= |mu^2 - 1| for |mu| near 1; certify via midpoints
            assert abs(e.abs_sq_mid() - 1) < tol
            assert e.radius < tol
        reals = [e for e, s in statuses if s != ON_CIRCLE]
        prod = FractionDisk.of(reals[0]) * reals[1]
        assert prod.contains_point(Fraction(1), Fraction(0))

    code = cli_main(["paper-examples", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    notes = [row["note"] for row in rows if row["note"]]
    assert any("x^4-7x^3-x^2-7x+1" in note for note in notes)
    _ok(2, "three Salem quartics certified; derivation note emitted for the corrected one")


# ---------------------------------------------------------------------------
# criterion 3: dual-path equality on a randomized corpus


FIELD_POOL = [
    (NumberField(from_ints(0, 1)), 1),  # Q
    (NumberField(from_ints(-2, 0, 1)), 2),
    (NumberField(from_ints(-5, 0, 1)), 2),
    (NumberField(from_ints(-13, 0, 1)), 2),
    (NumberField(from_ints(1, 0, 1)), 1),  # Q(i): CM, e/2 = 1
    (NumberField(from_ints(3, 0, 1)), 1),  # Q(sqrt-3)
    (NumberField(from_ints(1, 1, 1, 1, 1)), 2),  # Q(zeta5)
    (NumberField(from_ints(1, 0, 0, 0, 1)), 2),  # Q(zeta8)
    (NumberField(from_ints(1, 0, -10, 0, 1)), 4),  # Q(sqrt2, sqrt3)
    (NumberField(from_ints(-1, -3, 0, 1)), 3),  # cyclic cubic
]

_Q13 = NumberField(from_ints(-13, 0, 1))
_Q17 = NumberField(from_ints(-17, 0, 1))
_Q61 = NumberField(from_ints(-61, 0, 1))
_Q2 = NumberField(from_ints(-2, 0, 1))

QUAT_POOL = [
    QuatAlgebra(_Q13, [-2, -2], [2]),
    QuatAlgebra(_Q17, [10, -6], [2]),
    QuatAlgebra(_Q61, [94, -14], [2]),
    QuatAlgebra(_Q13, [-1], [-4, 1]),  # totally definite over Q(sqrt13)
    QuatAlgebra(_Q2, [-1], [-1]),  # totally definite over Q(sqrt2)
]


def _random_field_spec(rng):
    field, gmin = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
    g = gmin * rng.randint(1, max(1, 8 // gmin))
    coords = [rng.randint(-3, 3) for _ in range(field.degree)]
    if all(c == 0 for c in coords):
        coords[0] = 1
    return EndomorphismSpec(field, field.element(coords), g)


def _random_quat_spec(rng):
    algebra = QUAT_POOL[rng.randrange(len(QUAT_POOL))]
    base = algebra.base
    g = 2 * base.degree * rng.randint(1, 2)
    coords = [[rng.randint(-2, 2) for _ in range(base.degree)] for _ in range(4)]
    if all(c == 0 for row in coords for c in row):
        coords[0][0] = 1
    return EndomorphismSpec(algebra, algebra.element(*coords), g)


def build_corpus(rng, count):
    corpus = []
    while len(corpus) < count:
        maker = _random_field_spec if rng.random() < 0.65 else _random_quat_spec
        try:
            spec = maker(rng)
            admissibility_check(spec)
        except EndoscopeError:
            continue
        corpus.append(spec)
    return corpus


def test_criterion_3_dual_path_equality():
    rng = random.Random(20260808)
    corpus = build_corpus(rng, 55)
    companion_checked = 0
    for spec in corpus:
        ns = sorted(rng.sample(range(1, 11), 3))
        for n, via in zip(ns, eigenvalue_counts(spec, ns)):
            exact = fixed_points_exact(spec, n)
            assert exact == via, (spec, n, exact, via)
            if spec.is_field_case:
                # the doubled companion model on minpoly(f) computes N(1-f^n)^2,
                # so fix^deg = |N|^(2g) = oracle^g exactly
                minpoly = spec.element.minimal_polynomial()
                oracle = companion_oracle(minpoly, n)
                assert exact ** minpoly.degree == oracle ** spec.g, (spec, n)
                companion_checked += 1
    assert len(corpus) >= 50 and companion_checked >= 50
    _ok(3, f"{len(corpus)} specs x 3 iterates: exact = eigenvalue = companion paths")


# ---------------------------------------------------------------------------
# criterion 4: trivial anchors


def test_criterion_4_trivial_anchors():
    for g in range(1, 6):
        spec = EndomorphismSpec(rationals_field(), -1, g)
        assert fixed_points_exact(spec, 1) == 2 ** (2 * g)
    gauss = field_spec((1, 0, 1), [0, 1], 1)
    seq = [fixed_points_exact(gauss, n) for n in range(1, 9)]
    assert seq == [2, 4, 2, 0, 2, 4, 2, 0]
    assert classify_growth(gauss).period == 4
    _ok(4, "fix(-id) = 2^(2g) for g=1..5; fix(i^n) = (2,4,2,0) with period 4")


# ---------------------------------------------------------------------------
# criterion 5: growth dichotomy


def test_criterion_5_growth_dichotomy():
    hamilton = QuatAlgebra(rationals_field(), -1, -1)
    periodic_specs = [
        EndomorphismSpec(rationals_field(), 1, 2),
        EndomorphismSpec(rationals_field(), -1, 2),
        field_spec((1, 1, 1, 1, 1), [0, 1], 2),  # zeta5 image
        field_spec((1, 0, 1), [0, 1], 1),  # i
        EndomorphismSpec(hamilton, hamilton.gen_i(), 2),  # Nrd = 1 definite unit
        EndomorphismSpec(
            hamilton,
            hamilton.element(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
            2,
        ),
    ]
    for spec in periodic_specs:
        assert classify_growth(spec).growth_class == PERIODIC, spec

    exponential_specs = [
        field_spec((-2, 0, 1), [1, 1], 2),
        field_spec((-5, 0, 1), [Fraction(1, 2), Fraction(1, 2)], 2),
        field_spec((1, 0, 1), [1, 1], 1),
    ]
    for spec in exponential_specs:
        assert classify_growth(spec).growth_class == EXPONENTIAL_PURE, spec
        ev = rational_eigenvalues(spec, 128)
        expected = 1.0
        for e, _ in ev.statuses:
            mod = math.sqrt(float(e.abs_sq_mid()))
            if mod > 1:
                expected *= mod**ev.mult
        rate = fixed_points_exact(spec, 40) ** (1 / 40)
        assert abs(rate - expected) / expected < 0.01, spec
    _ok(5, "periodic/exponential dichotomy with 1%-accurate empirical growth rates")


# ---------------------------------------------------------------------------
# criterion 6: entropy values


def test_criterion_6_entropy_values():
    rep = entropy(field_spec((1, 0, 1), [0, 1], 1))
    assert rep.value == 0 and rep.is_zero

    rep = entropy(field_spec((-2, 0, 1), [1, 1], 2))
    assert rep.gamma_minpoly == from_ints(1, -6, 1)
    assert abs(float(rep.value) - 2 * math.log(1 + math.sqrt(2))) < 1e-9

    rep = entropy(salem_unit_spec())
    lam = max(isolate_roots(from_ints(1, -1, -1, -1, 1), 192), key=lambda e: e.re)
    with mp.workprec(150):
        assert abs(mp.mpf(str(rep.value)) - 2 * mp.log(fraction_to_mpf(lam.re))) < mp.mpf(10) ** -9
    assert rep.is_salem is True
    assert classify.is_salem_polynomial(rep.gamma_minpoly).is_salem
    _ok(6, "entropy(i) = 0; entropy(1+sqrt2) = 2 log(1+sqrt2); entropy(sqrt13 unit) = 2 log lambda with Salem gamma")


# ---------------------------------------------------------------------------
# criterion 7: structure theorem corpus


def _structure_corpus():
    specs = [
        field_spec((-2, 0, 1), [1, 1], 2),
        field_spec((-2, 0, 1), [1, 1], 4),
        field_spec((-2, 0, 1), [3, 2], 2),
        field_spec((-5, 0, 1), [Fraction(1, 2), Fraction(1, 2)], 2),
        field_spec((-5, 0, 1), [2, 1], 2),
        field_spec((-13, 0, 1), [1, 1], 2),
        field_spec((-13, 0, 1), [-3, 1], 2),
        field_spec((1, 0, -10, 0, 1), [0, 1], 4),
        field_spec((1, 0, -10, 0, 1), [1, 1], 4),
        field_spec((-1, -3, 0, 1), [0, 1], 3),
        field_spec((-1, -3, 0, 1), [1, 1], 3),
        field_spec((1, 0, 1), [1, 1], 1),
        field_spec((1, 0, 1), [2, 1], 1),
        field_spec((1, 0, 1), [1, 2], 1),
        field_spec((3, 0, 1), [1, 1], 1),
        field_spec((1, 1, 1, 1, 1), [2, 1], 2),
        field_spec((1, 1, 1, 1, 1), [1, 1, 1], 2),
        field_spec((1, 0, 0, 0, 1), [1, 1], 2),
    ]
    hamilton = QuatAlgebra(rationals_field(), -1, -1)
    specs.append(EndomorphismSpec(hamilton, hamilton.one() + hamilton.gen_i(), 2))
    specs.append(EndomorphismSpec(hamilton, hamilton.element(1, 1, 1, 0), 2))
    base13 = NumberField(from_ints(-13, 0, 1))
    definite13 = QuatAlgebra(base13, [-1], [-4, 1])
    specs.append(EndomorphismSpec(definite13, definite13.one() + definite13.gen_i(), 4))
    specs.append(EndomorphismSpec(definite13, definite13.element([1, 1], 1), 4))
    return specs


def test_criterion_7_structure_theorem():
    corpus = _structure_corpus()
    positive = 0
    for spec in corpus:
        rep = entropy(spec)
        if rep.is_zero:
            continue
        positive += 1
        assert rep.structure_ok is True, spec
        assert structure_certificate_for(spec) is True, spec
        assert rep.is_salem is False, spec  # gamma is never Salem for these types
    assert positive >= 20, positive
    _ok(7, f"structure certificate and non-Salem corollary on {positive} positive-entropy specs")


def test_gamma_from_the_structure_element_matches_the_eigenvalue_route():
    # classify takes gamma from the totally real element y; the product of
    # the m-th powers of the roots of q outside the circle is a second route
    compared = 0
    for spec in _structure_corpus():
        decision = classify._decided(spec)
        gamma, spectrum = decision.gamma, decision.spectrum
        outside = [e for e, s in spectrum.statuses if s == OUTSIDE]
        if not outside:
            assert gamma.as_fraction() == 1, spec
            continue
        direct = algnum.root_product(spectrum.poly, outside, spectrum.mult)
        assert direct.minpoly == gamma.minpoly, spec
        assert direct.enclosure.meets(gamma.enclosure), spec
        compared += 1
    assert compared >= 20, compared


def test_entropy_starts_no_exterior_power_past_the_cap(monkeypatch):
    # the spy sees every exterior power the package starts, by its number of
    # roots C(n, k)
    started = []
    exterior_sums = algnum._exterior_sums

    def spy(p, k, m, count):
        started.append(math.comb(p.degree, k))
        return exterior_sums(p, k, m, count)

    monkeypatch.setattr(algnum, "_exterior_sums", spy)
    for spec in _structure_corpus():
        entropy(spec)
    assert started and max(started) <= DEGREE_CAP, started
    started.clear()
    zeta19 = NumberField(QPoly([1] * 19))  # 1 + zeta19: gamma's power has C(9, 6) = 84 roots
    with pytest.raises(DegreeCapExceeded, match="degree 84 exceeds cap 64"):
        entropy(EndomorphismSpec(zeta19, zeta19.element([1, 1]), 18))
    assert started == []


# ---------------------------------------------------------------------------
# criterion 8: four randomized property suites, 1000 cases each, under 60 s


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = random.Random(0xACCE5)

    zeta5 = NumberField(from_ints(1, 1, 1, 1, 1))
    quad = NumberField(from_ints(-13, 0, 1))
    for _ in range(1000):
        field = zeta5 if rng.random() < 0.5 else quad
        x = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.degree)])
        y = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.degree)])
        assert (x * y).norm_q() == x.norm_q() * y.norm_q()
        assert (x + y).trace_q() == x.trace_q() + y.trace_q()

    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    for _ in range(1000):
        x = algebra.element(
            *[[Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(2)] for _ in range(4)]
        )
        ch = x * x - x * x.reduced_trace() + algebra.element(x.reduced_norm())
        assert ch == algebra.zero()
        assert x * x.conjugate() == algebra.element(x.reduced_norm())

    pool = [
        NumberField(from_ints(-2, 0, 1)),
        NumberField(from_ints(1, 0, 1)),
        NumberField(from_ints(-13, 0, 1)),
        NumberField(from_ints(3, 0, 1)),
        zeta5,
    ]
    for k in range(1000):
        field = pool[k % 4] if k % 10 else pool[4]
        coords = [rng.randint(-4, 4) for _ in range(field.degree)]
        if all(c == 0 for c in coords):
            coords[0] = 1
        x = field.element(coords)
        g = field.degree if field.degree % 2 == 0 else 2 * field.degree
        try:
            spec = EndomorphismSpec(field, x, g)
            ev = rational_eigenvalues(spec, 64)
        except EndoscopeError:
            continue
        entries = {(e.re, e.im, e.radius, s) for e, s in ev.statuses}
        assert entries == {(re, -im, rad, s) for re, im, rad, s in entries}

    parts_pool = [
        from_ints(1, 1),
        from_ints(-2, 1),
        from_ints(1, 0, 1),
        from_ints(-2, 0, 1),
        from_ints(-1, -1, 1),
        from_ints(1, -1, 1),
        from_ints(1, 1, 1, 1, 1),
    ]
    for _ in range(1000):
        p = QPoly((Fraction(rng.choice((-3, -2, -1, 1, 2, 3))),))
        for _ in range(rng.randint(1, 3)):
            p = p * parts_pool[rng.randrange(len(parts_pool))] ** rng.randint(1, 2)
        facs = factor(p)
        out = QPoly((p.lc,))
        for q, mult in facs:
            out = out * q**mult
        assert out == p

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok(8, f"4 x 1000 randomized property cases, zero failures, {elapsed:.1f}s total")
