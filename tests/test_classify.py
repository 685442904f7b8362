import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from endoscope import classify, factorq
from endoscope.classify import (
    CM_FIELD,
    EXPONENTIAL_MIXED,
    EXPONENTIAL_PURE,
    PERIODIC,
    TOTALLY_INDEFINITE_QUATERNION,
    TOTALLY_REAL_FIELD,
    admissibility_check,
    classify_growth,
    entropy,
    is_automorphism,
    is_salem_polynomial,
    structure_certificate_for,
)
from endoscope.enclosures import OUTSIDE, isolate_roots
from endoscope.errors import (
    DivisibilityViolation,
    NonIntegralElement,
    NotSimpleAlbertType,
    ValidationError,
)
from endoscope.lefschetz import EndomorphismSpec, fixed_point_table, fixed_points_exact
from endoscope.numfield import NumberField, rationals_field
from endoscope.qpoly import QPoly, cyclotomic_order, from_ints
from endoscope.quaternion import QuatAlgebra

from .oracles import fraction_to_mpf


def field_spec(coeffs, element, g):
    field = NumberField(from_ints(*coeffs))
    return EndomorphismSpec(field, field.element(element), g)


def salem_unit_spec():
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    f = algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    return EndomorphismSpec(algebra, f, 4)


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_examples():
    at = admissibility_check(field_spec((-2, 0, 1), [1, 1], 2))
    assert (at.kind, at.d, at.e) == (TOTALLY_REAL_FIELD, 1, 2)
    at = admissibility_check(salem_unit_spec())
    assert (at.kind, at.d, at.e) == (TOTALLY_INDEFINITE_QUATERNION, 2, 2)
    with pytest.raises(DivisibilityViolation):
        admissibility_check(field_spec((-2, 0, 1), [1, 1], 3))


def test_admissibility_cm_dimensions():
    # an elliptic curve with CM by Q(i): e = 2, g = 1
    at = admissibility_check(field_spec((1, 0, 1), [0, 1], 1))
    assert (at.kind, at.d, at.e) == (CM_FIELD, 1, 2)
    with pytest.raises(DivisibilityViolation):
        admissibility_check(field_spec((1, 1, 1, 1, 1), [0, 1], 1))


def test_admissibility_rejections():
    with pytest.raises(NotSimpleAlbertType):
        admissibility_check(field_spec((-2, 0, 0, 1), [0, 1], 3))
    with pytest.raises(NonIntegralElement):
        admissibility_check(field_spec((1, 0, 1), [Fraction(1, 2), Fraction(1, 2)], 1))
    base = NumberField(from_ints(-13, 0, 1))
    mixed = QuatAlgebra(base, -1, [0, 1])
    with pytest.raises(NotSimpleAlbertType):
        admissibility_check(EndomorphismSpec(mixed, mixed.one(), 4))
    split = QuatAlgebra(rationals_field(), 1, 1)
    with pytest.raises(NotSimpleAlbertType):
        admissibility_check(EndomorphismSpec(split, split.one() + split.gen_i(), 2))
    # f = 2 + i + k: Nrd(f) = 4 - 1 + 1 = 4 passes the zero-divisor check,
    # but the pure part squares to (i + k)^2 = 1 - 1 = 0
    f = split.element(2, 1, 0, 1)
    assert f.reduced_norm().poly == from_ints(4)
    with pytest.raises(NotSimpleAlbertType, match="pure part squares to zero"):
        admissibility_check(EndomorphismSpec(split, f, 2))


# elements a + b i of M_2(Q) = (1, 1 / Q) whose chi has two distinct factors,
# with the fixed-point counts n = 1..4 that the norm and resultant paths agree on
SPLIT_SPECTRA = [
    ((0, 1), from_ints(-1, 0, 1), [0, 0, 0, 0]),  # f = i, chi = (x - 1)^2 (x + 1)^2
    ((3, 1), from_ints(8, -6, 1), [9, 2025, 194481, 14630625]),  # chi = (x - 2)^2 (x - 4)^2
    ((1, 2), from_ints(-3, -2, 1), [16, 0, 2704, 0]),  # chi = (x + 1)^2 (x - 3)^2, mixed
]


@pytest.mark.parametrize("coords, reduced_charpoly, counts", SPLIT_SPECTRA)
def test_two_eigenvalue_factors_are_not_simple(coords, reduced_charpoly, counts):
    """chi = q^k for one irreducible q whenever Q[f] is a field; a chi with two
    distinct factors stops growth and entropy, not the gate or the counts."""
    split = QuatAlgebra(rationals_field(), 1, 1)
    spec = EndomorphismSpec(split, split.element(*coords), 2)
    assert admissibility_check(spec).kind == TOTALLY_INDEFINITE_QUATERNION
    assert spec.element.reduced_charpoly_q() == reduced_charpoly
    assert fixed_point_table(spec, 4) == counts
    for classifier in (classify_growth, entropy):
        with pytest.raises(NotSimpleAlbertType, match="2 distinct irreducible factors"):
            classifier(spec)


def test_a_field_spectrum_is_not_factored(monkeypatch):
    # F was proved a field when it was parsed, so chi is a power of the
    # minimal polynomial of f, its squarefree part; only a quaternion
    # algebra's chi is factored, for the single-factor rule
    field, quaternion = field_spec((1, 1, 1, 1, 1), [2, 1], 2), salem_unit_spec()
    calls, factor = [], factorq.factor
    monkeypatch.setattr(factorq, "factor", lambda p: calls.append(p) or factor(p))
    assert classify.rational_eigenvalues(field).poly == from_ints(1, 1, 1, 1, 1)(from_ints(-2, 1))  # 2 + zeta5
    assert calls == []
    classify.rational_eigenvalues(quaternion)
    assert calls == [quaternion.charpoly_q()]


SPECTRUM_FIELDS = {
    "Q(i)": (1, 0, 1),
    "Q(sqrt-3)": (3, 0, 1),
    "zeta5": (1, 1, 1, 1, 1),
    "zeta8": (1, 0, 0, 0, 1),
    "Q(sqrt2,sqrt3)": (1, 0, -10, 0, 1),
    "cyclic cubic": (-1, -3, 0, 1),
    "Q(zeta7)+": (-1, -2, 1, 1),
}


@pytest.mark.parametrize("name", SPECTRUM_FIELDS)
def test_field_spectrum_is_the_single_factor_of_chi(name):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    minpoly = SPECTRUM_FIELDS[name]
    degree, rng = len(minpoly) - 1, random.Random(name)
    for _ in range(8):
        coords = [rng.randint(-4, 4) for _ in range(degree)]
        coords[0] += not any(coords)
        spec = field_spec(minpoly, coords, degree)
        spectrum = classify.rational_eigenvalues(spec)
        [(q, mult)] = factorq.factor(spec.charpoly_q())
        assert (spectrum.poly, spectrum.mult) == (q, mult * spec.exponent())
        assert sympy.Poly([int(c) for c in reversed(q.coeffs)], x).is_irreducible


# ---------------------------------------------------------------------------
# roots of unity


def test_is_root_of_unity():
    # cyclotomic_order answers the root-of-unity question: the order n when
    # the polynomial is Phi_n, None otherwise, and it refuses non-integral input
    assert cyclotomic_order(from_ints(1, 0, 1)) == 4
    assert cyclotomic_order(from_ints(-1, -1, 1)) is None
    assert cyclotomic_order(from_ints(1, -1, -1, -1, 1)) is None
    assert cyclotomic_order(from_ints(1, -1, 1)) == 6
    assert cyclotomic_order(from_ints(-1, -2, 1)) is None
    with pytest.raises(ValidationError):
        cyclotomic_order(QPoly((Fraction(1, 2), Fraction(1))))


# ---------------------------------------------------------------------------
# growth


def test_growth_minus_identity():
    rep = classify_growth(EndomorphismSpec(rationals_field(), -1, 2))
    assert rep.growth_class == PERIODIC and rep.period == 2


def test_growth_exponential_pure_cases():
    assert classify_growth(field_spec((-2, 0, 1), [1, 1], 2)).growth_class == EXPONENTIAL_PURE
    phi = field_spec((-5, 0, 1), [Fraction(1, 2), Fraction(1, 2)], 2)
    assert classify_growth(phi).growth_class == EXPONENTIAL_PURE
    one_plus_i = field_spec((1, 0, 1), [1, 1], 1)
    assert classify_growth(one_plus_i).growth_class == EXPONENTIAL_PURE


def test_growth_cm_periodic():
    zeta = classify_growth(field_spec((1, 1, 1, 1, 1), [0, 1], 2))
    assert zeta.growth_class == PERIODIC and zeta.period == 5
    gauss = classify_growth(field_spec((1, 0, 1), [0, 1], 1))
    assert gauss.growth_class == PERIODIC and gauss.period == 4


def test_growth_definite_unit():
    hamilton = QuatAlgebra(rationals_field(), -1, -1)
    spec = EndomorphismSpec(hamilton, hamilton.gen_i(), 2)
    rep = classify_growth(spec)
    assert rep.growth_class == PERIODIC and rep.period == 4
    # a unit with Nrd = 1 built from the standard basis: (1 + i + j + k)/2
    half = Fraction(1, 2)
    unit = hamilton.element(half, half, half, half)
    rep = classify_growth(EndomorphismSpec(hamilton, unit, 2))
    assert rep.growth_class == PERIODIC


def test_growth_mixed_published_construction():
    rep = classify_growth(salem_unit_spec())
    assert rep.growth_class == EXPONENTIAL_MIXED
    assert rep.unit_circle_roots_of_unity is False


def test_periodicity_matches_fix_sequence():
    spec = field_spec((1, 1, 1, 1, 1), [0, 1], 2)
    rep = classify_growth(spec)
    seq = [fixed_points_exact(spec, n) for n in range(1, 3 * rep.period + 1)]
    for i in range(len(seq) - rep.period):
        assert seq[i] == seq[i + rep.period]


# ---------------------------------------------------------------------------
# automorphisms


def test_is_automorphism():
    assert is_automorphism(field_spec((1, 0, 1), [0, 1], 1)) is True
    assert is_automorphism(EndomorphismSpec(rationals_field(), 2, 1)) is False
    assert is_automorphism(salem_unit_spec()) is True
    assert is_automorphism(field_spec((-2, 0, 1), [1, 1], 2)) is True  # unit of infinite order
    # is_automorphism reads |N(f)| off chi(0); the oracle is the norm of the
    # element itself: N(f) for a field, N_{F/Q}(Nrd f) for a quaternion algebra
    hamilton = QuatAlgebra(rationals_field(), -1, -1)
    half = Fraction(1, 2)
    base = NumberField(from_ints(-13, 0, 1))
    indefinite = QuatAlgebra(base, [-2, -2], [2])
    specs = [
        field_spec((1, 0, 1), [0, 1], 1),  # i
        field_spec((1, 0, 1), [1, 1], 1),  # 1 + i, norm 2
        field_spec((-2, 0, 1), [1, 1], 2),  # 1 + sqrt2, norm -1
        field_spec((-2, 0, 1), [3], 2),  # norm 9
        field_spec((1, 1, 1, 1, 1), [0, 1], 2),  # zeta5
        field_spec((1, 1, 1, 1, 1), [2, 1], 2),  # 2 + zeta5, norm 11
        EndomorphismSpec(rationals_field(), -1, 1),
        EndomorphismSpec(rationals_field(), 2, 1),
        EndomorphismSpec(hamilton, hamilton.element(half, half, half, half), 2),  # Nrd 1
        EndomorphismSpec(hamilton, hamilton.element(1, 1, 0, 0), 2),  # Nrd 2
        EndomorphismSpec(hamilton, hamilton.element(1, 1, 1, 1), 2),  # Nrd 4
        salem_unit_spec(),
        EndomorphismSpec(indefinite, indefinite.element(1, 1), 4),  # Nrd 3 + 2 sqrt13, norm -43
        EndomorphismSpec(indefinite, indefinite.element(2), 4),  # Nrd 4, norm 16
    ]
    units = []
    for spec in specs:
        norm = spec.element.norm_q() if spec.is_field_case else spec.element.reduced_norm().norm_q()
        assert norm.denominator == 1 and norm != 0, spec
        assert is_automorphism(spec) is (abs(norm) == 1), spec
        units.append(abs(norm) == 1)
    assert units.count(True) == 6 and units.count(False) == 8


def test_zero_fix_count_implies_automorphism():
    for spec in (
        field_spec((1, 0, 1), [0, 1], 1),
        EndomorphismSpec(rationals_field(), -1, 2),
        field_spec((1, 1, 1, 1, 1), [0, 1], 2),
    ):
        rep = classify_growth(spec)
        hits_zero = any(
            fixed_points_exact(spec, n) == 0 for n in range(1, 2 * rep.period + 1)
        )
        assert not hits_zero or is_automorphism(spec)


# ---------------------------------------------------------------------------
# Salem polynomials


def test_salem_examples():
    rep = is_salem_polynomial(from_ints(1, -1, -1, -1, 1))
    assert rep.is_salem
    assert abs(rep.lead_root.re - Fraction(1722084, 1000000)) < Fraction(1, 10**5)
    assert is_salem_polynomial(from_ints(1, -3, 0, -3, 1)).is_salem
    assert is_salem_polynomial(from_ints(1, -7, -1, -7, 1)).is_salem


def test_salem_rejections():
    assert not is_salem_polynomial(from_ints(-1, 0, 0, 0, 1)).is_salem  # reducible
    assert not is_salem_polynomial(from_ints(1, 0, 0, 1)).is_salem  # odd degree
    assert not is_salem_polynomial(from_ints(1, -3, 1)).is_salem  # degree 2
    assert not is_salem_polynomial(from_ints(1, 1, 1, 1, 1)).is_salem  # cyclotomic
    # reciprocal quartic with all roots on the circle (phi_12)
    assert not is_salem_polynomial(from_ints(1, 0, -1, 0, 1)).is_salem
    with pytest.raises(ValidationError):
        is_salem_polynomial(QPoly((Fraction(1, 2), 1, 1, 1, Fraction(1, 2))))


def test_lehmer_polynomial_is_salem():
    lehmer = from_ints(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    rep = is_salem_polynomial(lehmer)
    assert rep.is_salem
    assert abs(rep.lead_root.re - Fraction(11762808, 10**7)) < Fraction(1, 10**5)


def test_salem_circle_certificates_tight():
    rep = is_salem_polynomial(from_ints(1, -1, -1, -1, 1))
    assert rep.is_salem


# ---------------------------------------------------------------------------
# entropy


def test_entropy_zero_cases():
    rep = entropy(field_spec((1, 0, 1), [0, 1], 1))
    assert rep.value == 0 and rep.is_zero and rep.structure_ok is True
    rep = entropy(EndomorphismSpec(rationals_field(), -1, 3))
    assert rep.value == 0


def test_entropy_silver_ratio():
    rep = entropy(field_spec((-2, 0, 1), [1, 1], 2))
    assert rep.gamma_minpoly == from_ints(1, -6, 1)
    assert abs(float(rep.value) - 2 * math.log(1 + math.sqrt(2))) < 1e-9
    assert rep.is_salem is False
    assert rep.structure_ok is True


def test_entropy_published_construction():
    spec = salem_unit_spec()
    rep = entropy(spec)
    lam = isolate_roots(from_ints(1, -1, -1, -1, 1), 192)[-1]
    with mp.workprec(120):
        expected = 2 * mp.log(fraction_to_mpf(lam.re))
        assert abs(mp.mpf(str(rep.value)) - expected) < mp.mpf(10) ** -9
    assert rep.is_salem is True
    assert rep.structure_ok is None
    with pytest.raises(ValidationError):
        structure_certificate_for(spec)


def test_entropy_definite_quaternion():
    hamilton = QuatAlgebra(rationals_field(), -1, -1)
    spec = EndomorphismSpec(hamilton, hamilton.one() + hamilton.gen_i(), 2)
    rep = entropy(spec)
    assert rep.gamma_minpoly == from_ints(-4, 1)
    assert abs(float(rep.value) - math.log(4)) < 1e-12
    assert rep.structure_ok is True
    assert structure_certificate_for(spec) is True
    assert rep.is_salem is False


def test_entropy_reads_the_salem_flag_without_testing_gamma_again(monkeypatch):
    # factorq.factor proved gamma's minimal polynomial irreducible, and gamma
    # is certified real and > 1, so the Salem flag is a count of its roots on
    # the circle: once gamma is selected, no irreducibility test and no root
    # isolation of its minimal polynomial runs
    from endoscope import algnum, enclosures

    spec = salem_unit_spec()
    q = classify._decided(spec).gamma.minpoly
    assert q == from_ints(1, -3, 1, -3, 1)
    calls, is_irreducible, isolate = [], factorq.is_irreducible, enclosures._isolate
    monkeypatch.setattr(factorq, "is_irreducible", lambda p: calls.append(p) or is_irreducible(p))
    for module in (enclosures, algnum, classify):
        monkeypatch.setattr(module, "_isolate", lambda p, *a: calls.append(p) or isolate(p, *a))
    assert entropy(spec).is_salem is True
    assert q not in calls


def test_entropy_salem_flag_is_the_salem_test():
    from collections import Counter

    from endoscope.cli import _published_rows

    from .test_acceptance import build_corpus

    # f with Nrd(f) = 1 and Trd(f) = 4 + sqrt2 in the split (1, 1 / Q(sqrt2)):
    # chi = x^4 - 8x^3 + 16x^2 - 8x + 1 has four real roots off the circle,
    # so gamma's minimal polynomial is reciprocal of degree 4 but not Salem
    split = QuatAlgebra(NumberField(from_ints(-2, 0, 1)), [1], [1])
    f = split.element([2, Fraction(1, 2)], [Fraction(9, 4), 1], [], [Fraction(5, 4), 1])
    specs = [salem_unit_spec(), EndomorphismSpec(split, f, 4)] + [row["spec"] for row in _published_rows()]
    reasons = Counter()
    for spec in specs + build_corpus(random.Random(30), 150):
        rep = entropy(spec)
        salem = is_salem_polynomial(rep.gamma_minpoly)
        assert rep.is_salem == salem.is_salem, spec
        reasons[salem.reason.split(",")[0]] += 1
    assert reasons["reciprocal"] == 4 and reasons["not reciprocal"] >= 1
    assert reasons["more than one root off the unit circle on some side"] == 1


def test_entropy_growth_consistency():
    for spec in (
        field_spec((1, 0, 1), [0, 1], 1),
        field_spec((-2, 0, 1), [1, 1], 2),
        field_spec((1, 1, 1, 1, 1), [0, 1], 2),
        salem_unit_spec(),
    ):
        growth = classify_growth(spec)
        rep = entropy(spec)
        assert (rep.value == 0) == (growth.growth_class == PERIODIC)


def test_structure_certificate_cm_positive_entropy():
    # 1+i in Q(i) on an elliptic curve: gamma = 2
    spec = field_spec((1, 0, 1), [1, 1], 1)
    rep = entropy(spec)
    assert rep.gamma_minpoly == from_ints(-2, 1)
    assert rep.structure_ok is True and structure_certificate_for(spec)
    # 2 + zeta5 in Q(zeta5), g = 2
    spec = field_spec((1, 1, 1, 1, 1), [2, 1], 2)
    rep = entropy(spec)
    assert rep.structure_ok is True
    assert rep.is_salem is False


def test_structure_certificate_totally_real_quartic():
    # Q(sqrt2, sqrt3) is Galois and totally real; generator is a unit
    spec = field_spec((1, 0, -10, 0, 1), [0, 1], 4)
    rep = entropy(spec)
    assert float(rep.value) > 0
    assert rep.structure_ok is True
    assert rep.is_salem is False


def test_indefinite_pure_exponential_case():
    # i itself in the sqrt13 algebra: Nrd(i) = 2 + 2*sqrt13, all eigenvalues
    # off the circle, gamma = N(Nrd(i))^2 = 48^2 rational
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    spec = EndomorphismSpec(algebra, algebra.gen_i(), 4)
    rep = classify_growth(spec)
    assert rep.growth_class == EXPONENTIAL_PURE
    ent = entropy(spec)
    assert ent.gamma_minpoly == from_ints(-2304, 1)
    assert abs(float(ent.value) - math.log(2304)) < 1e-12
    assert ent.structure_ok is None


def test_criterion_equivalence_randomized():
    # the exact periodicity criteria agree with the eigenvalue spectrum on
    # random units and non-units (classify_growth raises on any disagreement)
    import random

    rng = random.Random(99)
    zeta5 = NumberField(from_ints(1, 1, 1, 1, 1))
    hamilton = QuatAlgebra(rationals_field(), -1, -1)
    half = Fraction(1, 2)
    units = [
        EndomorphismSpec(zeta5, zeta5.element([0, 1]), 2),
        EndomorphismSpec(zeta5, zeta5.element([0, 0, 0, 1]), 2),
        EndomorphismSpec(zeta5, zeta5.element([-1, -1, -1, -1]), 2),
        EndomorphismSpec(hamilton, hamilton.gen_j(), 2),
        EndomorphismSpec(hamilton, hamilton.element(half, -half, half, -half), 2),
        EndomorphismSpec(hamilton, -hamilton.one(), 2),
    ]
    seen_periodic = seen_exponential = 0
    for k in range(40):
        if k < len(units):
            spec = units[k]
        elif rng.random() < 0.5:
            coords = [rng.randint(-2, 2) for _ in range(4)]
            if all(c == 0 for c in coords):
                coords[0] = 1
            spec = EndomorphismSpec(zeta5, zeta5.element(coords), 2)
        else:
            coords = [rng.randint(-2, 2) for _ in range(4)]
            if all(c == 0 for c in coords):
                coords[0] = 1
            spec = EndomorphismSpec(hamilton, hamilton.element(*coords), 2)
        try:
            rep = classify_growth(spec)
        except NotSimpleAlbertType:
            continue
        if rep.growth_class == PERIODIC:
            seen_periodic += 1
        else:
            seen_exponential += 1
    assert seen_periodic >= 6 and seen_exponential >= 20


def test_entropy_cm_sextic_two_pair_products():
    # f = 1 + zeta7 on g = 3: embedding moduli 2cos(pi k/7) give two conjugate
    # pairs outside the circle, so gamma multiplies two distinct conjugates of
    # y = f*conj(f) = 2 + zeta + 1/zeta; y has minpoly x^3 - 5x^2 + 6x - 1 and
    # gamma = 1/(smallest root), with minimal polynomial x^3 - 6x^2 + 5x - 1
    zeta7 = NumberField(from_ints(1, 1, 1, 1, 1, 1, 1))
    spec = EndomorphismSpec(zeta7, zeta7.element([1, 1]), 3)
    at = admissibility_check(spec)
    assert at.kind == CM_FIELD and at.e == 6
    growth = classify_growth(spec)
    assert growth.growth_class == EXPONENTIAL_PURE
    rep = entropy(spec)
    assert rep.gamma_minpoly == from_ints(-1, 5, -6, 1)
    assert rep.structure_ok is True
    assert rep.is_salem is False
    small = min(isolate_roots(from_ints(-1, 6, -5, 1), 192), key=lambda e: e.re)
    with mp.workprec(120):
        assert abs(mp.mpf(str(rep.value)) + mp.log(fraction_to_mpf(small.re))) < mp.mpf(10) ** -9


def test_entropy_cm_quartic_cyclotomic12():
    # 1 + zeta12 on g = 2: one conjugate pair outside, gamma = 2 + sqrt3
    zeta12 = NumberField(from_ints(1, 0, -1, 0, 1))
    spec = EndomorphismSpec(zeta12, zeta12.element([1, 1]), 2)
    rep = entropy(spec)
    assert rep.gamma_minpoly == from_ints(1, -4, 1)
    assert abs(float(rep.value) - math.log(2 + math.sqrt(3))) < 1e-9
    assert rep.structure_ok is True


def test_entropy_g8_quaternion_with_huge_gamma_candidates(tmp_path, capsys):
    # the gamma candidates of this job have roots near 2^67; their seeds used
    # to stall and the job ended precision-exhausted
    import json

    from endoscope.cli import main

    algebra = {
        "kind": "quaternion",
        "base_minpoly": ["-13/1", "0/1", "1/1"],
        "alpha": ["-2/1", "-2/1"],
        "beta": ["2/1"],
    }
    element = {"a": ["0/1", "1/1"], "b": ["1/1", "-1/1"], "c": ["2/1", "2/1"], "d": ["-2/1", "-1/1"]}
    job = {"spec": {"algebra": algebra, "element": element, "g": 8}, "commands": [{"op": "entropy"}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["results"][0]["entropy"]
    assert report["gamma_minpoly"] == [f"-{84113**4}/1", "1/1"]

    base = NumberField(from_ints(-13, 0, 1))
    quat = QuatAlgebra(base, [-2, -2], [2])
    spec = EndomorphismSpec(quat, quat.element([0, 1], [1, -1], [2, 2], [-2, -1]), 8)
    rep = entropy(spec)
    assert rep.gamma_minpoly == from_ints(-(84113**4), 1)
    # independently: every root of the charpoly lies outside the circle, each
    # with multiplicity 2g/(de) = 4, so gamma = |product of the roots|^4
    charpoly = spec.charpoly_q()
    assert charpoly == from_ints(84113, -3952, -850, 0, 1)
    assert spec.exponent() == 4
    with mp.workprec(100):
        roots = mp.polyroots([int(c) for c in reversed(charpoly.coeffs)])
        assert min(abs(r) for r in roots) > 2


def test_entropy_degree8_cm_folds_the_exterior_power(monkeypatch):
    # Q(zeta16), g = 4: gamma comes from y = f*conj(f), whose minimal
    # polynomial has degree 4 with 2 roots above 1, so the folded power has
    # degree C(4, 2) / 2 = 3.  On the charpoly, 4 of the 8 roots lie outside
    # the circle, and C(8, 4) = 70 is above the factorization cap; folding the
    # subsets with their complements halves the degree there too
    from endoscope import algnum

    calls = []
    exterior_sums = algnum._exterior_sums

    def spy(p, k, m, count):
        calls.append((p.degree, k, count))
        return exterior_sums(p, k, m, count)

    monkeypatch.setattr(algnum, "_exterior_sums", spy)
    spec = field_spec((1, 0, 0, 0, 0, 0, 0, 0, 1), [0, 0, 0, -1, -1, 0, 1, 1], 4)  # Q(zeta16)
    rep = entropy(spec)
    assert rep.gamma_minpoly == from_ints(16, -224, 280, -56, 1)
    assert rep.structure_ok is True
    assert calls == [(4, 2, 3)]

    spectrum = classify._decided(spec).spectrum
    outside = [e for e, s in spectrum.statuses if s == OUTSIDE]
    assert spectrum.poly.degree == 8 and len(outside) == 4
    gamma = algnum.root_product(spectrum.poly, outside, spectrum.mult)
    assert gamma.minpoly == rep.gamma_minpoly
    assert (8, 4, 35) in calls


def test_structure_certificate_reads_gamma():
    # 2 + zeta5 in Q(zeta5), g = 2: the certificate holds for the true gamma
    # and fails once gamma is replaced by another number, its square
    from endoscope import algnum

    spec = field_spec((1, 1, 1, 1, 1), [2, 1], 2)
    rep = entropy(spec)
    assert rep.structure_ok is True and structure_certificate_for(spec) is True
    decision = classify._decided(spec)
    gamma = decision.gamma
    decision.gamma = algnum.root_product(gamma.minpoly, [gamma.enclosure], 2)
    assert decision.gamma.minpoly != gamma.minpoly
    assert structure_certificate_for(spec) is False
    assert classify._structure_result(spec, decision.albert, trivial=False) == (
        False,
        "gamma's enclosure misses the disk_product of q's roots outside the circle",
    )


def test_classify_decides_each_parsed_spec_once(monkeypatch):
    # classify and entropy on one parsed spec read one record: the spectrum
    # and the structure element are built once, and the period is the order
    # of the roots of unity, so neither job builds a fixed-point table
    import sys

    from endoscope import jobs, lefschetz

    calls = {}
    for name in ("rational_eigenvalues", "_structure_element"):
        original = getattr(classify, name)
        calls[name] = []
        monkeypatch.setattr(classify, name, lambda *a, _f=original, _c=calls[name]: _c.append(a) or _f(*a))
    table, calls["fixed_point_table"] = lefschetz.fixed_point_table, []
    for module in [m for n, m in sys.modules.items() if n.startswith("endoscope")]:
        if getattr(module, "fixed_point_table", None) is table:  # every module that imported it by name
            monkeypatch.setattr(module, "fixed_point_table", lambda *a: calls["fixed_point_table"].append(a) or table(*a))
    zeta5 = {"kind": "field", "minpoly": ["1/1"] * 5}
    spec = jobs.parse_spec({"algebra": zeta5, "element": {"coords": ["2/1", "1/1"]}, "g": 2}, "spec")
    reports = [jobs.run_command(spec, {"op": op}) for op in ("classify", "entropy")]
    assert reports[0]["entropy"] == reports[1]["entropy"] and reports[1]["entropy"]["structure_ok"] is True
    assert len(calls["rational_eigenvalues"]) == len(calls["_structure_element"]) == 1
    assert calls["fixed_point_table"] == []

    gauss = {"kind": "field", "minpoly": ["1/1", "0/1", "1/1"]}
    spec = jobs.parse_spec({"algebra": gauss, "element": {"coords": ["0/1", "1/1"]}, "g": 1}, "spec")
    assert jobs.run_command(spec, {"op": "entropy"})["entropy"]["gamma_minpoly"] == ["-1/1", "1/1"]
    assert calls["fixed_point_table"] == []
    assert jobs.run_command(spec, {"op": "classify"})["growth"]["period"] == 4
    assert calls["fixed_point_table"] == []
    assert len(jobs.run_command(spec, {"op": "fixpoints", "nmax": 4})["fix"]) == 4  # the spy sees a table
    assert len(calls["fixed_point_table"]) == 1
