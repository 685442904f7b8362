import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from endoscope import numfield
from endoscope.enclosures import isolate_roots
from endoscope.errors import PrecisionExhausted, ValidationError
from endoscope.numfield import (
    CM,
    OTHER,
    TOTALLY_REAL,
    NumberField,
    _verify_cm,
    apply_conjugation,
    cm_structure,
    is_totally_real,
    rationals_field,
)
from endoscope.qpoly import ONE, QPoly, X, count_real_roots, from_ints

from .oracles import FractionDisk


def F(*coeffs):
    return NumberField(from_ints(*coeffs))


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def _sympy_poly(coeffs, var):
    sympy = pytest.importorskip("sympy")
    return sum(sympy.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(coeffs))


@pytest.fixture(scope="module")
def sqrt13():
    return F(-13, 0, 1)


@pytest.fixture(scope="module")
def golden():
    return F(-5, 0, 1)


@pytest.fixture(scope="module")
def gauss():
    return F(1, 0, 1)


@pytest.fixture(scope="module")
def zeta5():
    return F(1, 1, 1, 1, 1)


def test_basic_arithmetic(sqrt13, golden):
    r = sqrt13.gen()
    assert r * r == 13
    phi = (golden.gen() + 1) * Fraction(1, 2)
    assert phi * phi == phi + 1


def test_parent_mismatch(sqrt13, golden):
    with pytest.raises(ValidationError):
        sqrt13.gen() + golden.gen()


def test_minimal_polynomials(sqrt13):
    r = sqrt13.gen()
    assert r.minimal_polynomial() == from_ints(-13, 0, 1)
    assert ((1 - r) * Fraction(1, 2)).minimal_polynomial() == from_ints(-3, -1, 1)
    assert sqrt13.element(5).minimal_polynomial() == from_ints(-5, 1)


def test_norms_and_traces(sqrt13, golden):
    phi = (golden.gen() + 1) * Fraction(1, 2)
    assert (1 - phi).norm_q() == -1
    assert sqrt13.element(7).norm_q() == 49
    assert sqrt13.gen().trace_q() == 0
    assert (sqrt13.gen().norm_q(), sqrt13.gen().trace_q()) == (Fraction(-13), Fraction(0))


def test_norm_equals_resultant(sqrt13):
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y")
    x = (3 + 2 * sqrt13.gen()) * Fraction(1, 5)
    assert x.norm_q() == _fraction(sympy.resultant(y**2 - 13, (3 + 2 * y) / 5, y))


def test_totally_real_flags(sqrt13, gauss):
    assert is_totally_real(F(-2, 0, 1))
    assert is_totally_real(rationals_field())
    assert not is_totally_real(gauss)
    assert not is_totally_real(F(1, -1, -1, -1, 1))


def test_cm_structure_gauss(gauss):
    rep = cm_structure(gauss)
    assert rep.kind == CM
    i = gauss.gen()
    assert apply_conjugation(rep, i) == -i
    assert _real_subfield_minpoly(rep, gauss) == from_ints(0, 1)


def test_cm_structure_zeta5(zeta5):
    rep = cm_structure(zeta5)
    assert rep.kind == CM
    assert _real_subfield_minpoly(rep, zeta5) == from_ints(-1, 1, 1)
    z = zeta5.gen()
    assert apply_conjugation(rep, z) * z == 1
    # conjugation fixes the real subfield generator exactly
    s = z + apply_conjugation(rep, z)
    assert apply_conjugation(rep, s) == s


def _real_subfield_minpoly(rep, field) -> QPoly:
    """The minimal polynomial of gen + conj(gen), which generates the maximal
    real subfield of the fields below."""
    gen = field.gen()
    return (gen + apply_conjugation(rep, gen)).minimal_polynomial()


def _cyclotomic(n: int) -> QPoly:
    q = X**n - ONE
    for d in range(1, n):
        if n % d == 0:
            q = q // _cyclotomic(d)
    return q


def test_cm_structure_zeta8():
    zeta8 = F(1, 0, 0, 0, 1)
    rep = cm_structure(zeta8)
    assert rep.kind == CM
    assert _real_subfield_minpoly(rep, zeta8) == from_ints(-2, 0, 1)
    # a + zeta_n of degree 12, 18 and 24: the trace form at scale
    for a, n in ((100, 13), (5000, 19), (3, 35)):
        field = NumberField(_cyclotomic(n)(X - a))
        rep = cm_structure(field)
        assert rep.kind == CM
        alpha = field.gen()
        conj = apply_conjugation(rep, alpha)
        assert conj != alpha and apply_conjugation(rep, conj) == alpha
        assert _real_subfield_minpoly(rep, field).degree == field.degree // 2


def test_cm_structure_other_cases(isolations):
    assert cm_structure(F(-2, 0, 0, 1)).kind == OTHER  # one real, two complex
    assert cm_structure(F(1, 1, 0, 0, 1)).kind == OTHER  # totally imaginary, not CM
    assert isolations == [64]  # proved by one certified pass
    # a Salem field has two real and two complex embeddings: neither class
    assert cm_structure(F(1, -1, -1, -1, 1)).kind == OTHER
    assert cm_structure(F(-2, 0, 1)).kind == TOTALLY_REAL


def test_cm_structure_counts_the_real_roots_once(monkeypatch):
    # one Sturm count decides totally real (count = degree) and a real
    # embedding (count > 0) alike
    counted, count = [], numfield.count_real_roots
    monkeypatch.setattr(numfield, "count_real_roots", lambda p, *a: counted.append(p) or count(p, *a))
    for minpoly, kind in [((-2, 0, 1), TOTALLY_REAL), ((-2, 0, 0, 1), OTHER), ((1, -1, -1, -1, 1), OTHER)]:
        counted.clear()
        field = F(*minpoly)
        assert cm_structure(field).kind == kind
        assert counted == [field.minpoly]


# CM fields a + zeta_n, Q(i) and Q(sqrt-3), by minimal polynomial
CM_FIELDS = [_cyclotomic(n)(X - a) for a in (0, 3, 100) for n in (5, 7, 8, 9, 12, 13)]
CM_FIELDS += [from_ints(1, 0, 1), from_ints(3, 0, 1)]


def _assert_complex_conjugation(minpoly, rep):
    # checked on certified enclosures, independently of how the conjugation
    # was found: the image of each root's disk under the reported h meets the
    # disk of the complex-conjugate root and no other
    # (h is evaluated by Horner on the disk, rounded outward to 2^-256 at
    # every step, so that its Fractions stay near 256 bits at degree 60)
    assert rep.kind == CM
    h = rep.conj_automorphism.poly
    roots = isolate_roots(minpoly, 128)
    for root in roots:
        image, disk = FractionDisk(0, 0, 0), FractionDisk.of(root)
        for c in reversed(h.coeffs):
            image = (image * disk + c).rounded(256)
        assert [other for other in roots if image.meets(other)] == [root.conjugate()]


@pytest.mark.parametrize("minpoly", CM_FIELDS, ids=repr)
def test_conjugation_is_complex_conjugation(minpoly):
    _assert_complex_conjugation(minpoly, cm_structure(NumberField(minpoly)))


# every cyclotomic field of degree 2 to 24, and zeta61 of degree 60
CYCLOTOMIC_CM = [n for n in range(3, 91) if sum(math.gcd(k, n) == 1 for k in range(n)) <= 24] + [61]


@pytest.mark.parametrize("n", CYCLOTOMIC_CM)
def test_cm_conjugation_is_proved_by_one_verification(n, monkeypatch):
    # the first candidate, the exact x^-1 of a reciprocal minimal polynomial,
    # is complex conjugation, so the exact proof runs once
    verified, verify = [], numfield._verify_cm
    monkeypatch.setattr(numfield, "_verify_cm", lambda field, h: verified.append(h) or verify(field, h))
    minpoly = _cyclotomic(n)
    rep = cm_structure(NumberField(minpoly))
    assert len(verified) == 1
    _assert_complex_conjugation(minpoly, rep)


@pytest.fixture
def isolations(monkeypatch):
    """The precisions at which cm_structure isolates the roots of m."""
    asked, isolate = [], numfield._isolate
    monkeypatch.setattr(numfield, "_isolate", lambda p, bits: asked.append(bits) or isolate(p, bits))
    return asked


EXACT_CANDIDATE_FIELDS = [from_ints(1, 0, 1), from_ints(3, 0, 1)] + [_cyclotomic(n) for n in (5, 8, 7, 9, 11, 13, 16, 31)]


@pytest.mark.parametrize("minpoly", EXACT_CANDIDATE_FIELDS, ids=repr)
def test_cm_conjugation_is_found_at_the_first_rung(minpoly, isolations):
    # a reciprocal minimal polynomial (x^2 + 1 and the cyclotomic ones) is
    # proved by the exact candidate x^-1 with no root isolated; x^2 + 3
    # presents Q(zeta3) by a polynomial that is not reciprocal, and is proved
    # by the exact quadratic candidate, its other root -x, with none either
    assert cm_structure(NumberField(minpoly)).kind == CM
    assert isolations == []


@pytest.mark.parametrize("minpoly", EXACT_CANDIDATE_FIELDS, ids=repr)
def test_exact_inverse_and_the_ladder_find_the_same_conjugation(minpoly, monkeypatch):
    # with x^-1 withheld, the trace-form candidate proves the same conjugation
    exact = cm_structure(NumberField(minpoly))
    monkeypatch.setattr(numfield, "_inverse_candidate", lambda m: None)
    trace_form = cm_structure(NumberField(minpoly))
    assert exact == trace_form
    _assert_complex_conjugation(minpoly, trace_form)


def test_inverse_candidate_is_refused_off_the_unit_circle(isolations):
    # x^4 + 6x^2 + 1 is reciprocal, with roots i(1 +- sqrt2) off the circle:
    # x^-1 is an automorphism of order two, but alpha + 1/alpha = 2i is not
    # real, so the exact proof refuses it and the trace form finds -x
    minpoly = from_ints(1, 0, 6, 0, 1)
    assert numfield._inverse_candidate(minpoly) is not None
    assert _verify_cm(NumberField(minpoly), numfield._inverse_candidate(minpoly)) is None
    rep = cm_structure(NumberField(minpoly))
    assert rep.conj_automorphism.poly == -X and isolations == [64]
    _assert_complex_conjugation(minpoly, rep)


def test_cm_conjugation_with_large_coefficients_climbs_the_ladder(isolations):
    # alpha = zeta5 + 10^9 zeta5^2 + 12345 zeta5^3: complex conjugation, as a
    # polynomial in alpha, has coefficients of about 150 bits; the scaled
    # trace sums of roots near 10^9 do not resolve to integers at 64 bits,
    # so the bits are doubled
    minpoly = F(1, 1, 1, 1, 1).element([0, 1, 10**9, 12345]).minimal_polynomial()
    rep = cm_structure(NumberField(minpoly))
    _assert_complex_conjugation(minpoly, rep)
    assert isolations[0] == 64 and len(isolations) > 1
    assert max(c.denominator for c in rep.conj_automorphism.coeffs) > 1 << 64


def test_unresolved_trace_sums_raise_rather_than_answer(monkeypatch):
    # the same field with a cap of 64 bits: the sums hold two or more integers
    # at 64 bits, and no answer is given without a proof
    minpoly = F(1, 1, 1, 1, 1).element([0, 1, 10**9, 12345]).minimal_polynomial()
    monkeypatch.setattr(numfield, "MAX_BITS", 64)
    with pytest.raises(PrecisionExhausted):
        cm_structure(NumberField(minpoly))


# totally imaginary sextics that are not CM, Q(cbrt2 + i) and x^6 + x + 1: a
# trace sum whose interval holds no integer, or a refused candidate, proves
# it at the first precision, as for x^4 + x + 1 above
NOT_CM_FIELDS = [from_ints(5, 12, 3, -4, 3, 0, 1), from_ints(1, 1, 0, 0, 0, 0, 1)]


@pytest.mark.parametrize("minpoly", NOT_CM_FIELDS, ids=repr)
def test_other_is_proved_by_one_isolation(minpoly, isolations):
    assert cm_structure(NumberField(minpoly)).kind == OTHER
    assert isolations == [64]


# the fields above whose conjugation the trace form finds on its own
TRACE_FORM_CM_FIELDS = CM_FIELDS + [_cyclotomic(n)(X - a) for a, n in ((100, 13), (5000, 19), (3, 35))]
TRACE_FORM_CM_FIELDS += [from_ints(1, 0, 6, 0, 1), F(1, 1, 1, 1, 1).element([0, 1, 10**9, 12345]).minimal_polynomial()]


@pytest.mark.parametrize("minpoly", TRACE_FORM_CM_FIELDS, ids=repr)
def test_trace_candidate_is_complex_conjugation(minpoly):
    field = NumberField(minpoly)
    h = numfield._trace_candidate(field)
    assert h == cm_structure(field).conj_automorphism.poly
    _assert_complex_conjugation(minpoly, _verify_cm(field, h))


def test_verify_cm_when_alpha_plus_conj_alpha_has_low_degree():
    # alpha = i (1 + sqrt2): alpha + h(alpha) = 0 is rational, so the fixed
    # field K comes from alpha h(alpha) = 3 + 2 sqrt2, totally real
    field = F(1, 0, 6, 0, 1)
    assert _verify_cm(field, -X).kind == CM
    # alpha^6 = -2 and h = -x: alpha + h(alpha) = 0 again, but alpha h(alpha)
    # = -alpha^2 is a cube root of 2, whose field has complex embeddings
    assert _verify_cm(F(2, 0, 0, 0, 0, 0, 1), -X) is None


CM_SPLIT = {"zeta5": (1, 1, 1, 1, 1), "zeta8": (1, 0, 0, 0, 1), "zeta7": (1, 1, 1, 1, 1, 1, 1)}


@given(st.sampled_from(sorted(CM_SPLIT)), st.lists(st.integers(-6, 6), min_size=1, max_size=6))
def test_charpoly_over_the_real_subfield_squares_to_the_charpoly(name, xc):
    # x + conj(x) and x conj(x) lie in the index-two real subfield K, so the
    # characteristic polynomial over Q of F is the square of the one of K
    field = F(*CM_SPLIT[name])
    rep = cm_structure(field)
    x = field.element(xc)
    for y in (x + apply_conjugation(rep, x), x * apply_conjugation(rep, x)):
        assert y.charpoly_q(2) ** 2 == y.charpoly_q()


def test_order_two_automorphism_with_a_fixed_field_not_totally_real():
    # Q(cbrt2 + i) is totally imaginary and i -> -i is an automorphism of
    # order two, but it fixes Q(cbrt2), which has complex embeddings: not CM
    field = F(5, 12, 3, -4, 3, 0, 1)
    i = QPoly([Fraction(c, 22) for c in (-91, -78, 78, -40, 9, -12)])
    assert field.element(i) * field.element(i) == -1
    h = X - i * 2
    assert field.minpoly.compose_mod(h, field.minpoly).is_zero
    assert h.compose_mod(h, field.minpoly) == X
    assert _verify_cm(field, h) is None
    assert cm_structure(field).kind == OTHER


def test_reducible_minpoly_rejected():
    with pytest.raises(ValidationError):
        NumberField(from_ints(-1, 0, 1))


elements = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=4
)


@given(elements, elements)
def test_norm_multiplicative_trace_additive(xc, yc):
    field = F(1, 1, 1, 1, 1)
    x, y = field.element(xc), field.element(yc)
    assert (x * y).norm_q() == x.norm_q() * y.norm_q()
    assert (x + y).trace_q() == x.trace_q() + y.trace_q()


@given(elements)
def test_minimal_polynomial_annihilates(xc):
    field = F(1, 1, 1, 1, 1)
    x = field.element(xc)
    m = x.minimal_polynomial()
    acc = field.zero()
    for c in reversed(m.coeffs):
        acc = acc * x + field.element(c)
    assert acc.is_zero
    assert field.degree % m.degree == 0


@given(elements)
def test_totally_real_subfield_closure(xc):
    # subfields of a totally real field are totally real
    field = F(1, 0, -10, 0, 1)  # Q(sqrt2, sqrt3)
    x = field.element(xc)
    sub = NumberField(x.minimal_polynomial())
    assert is_totally_real(sub)


@given(st.sampled_from([5, 7, 8, 12]), elements)
def test_cm_subfield_closure(n, xc):
    # subfields of a CM field Q(zeta_n) are totally real or CM, never Other;
    # their minimal polynomials are seldom reciprocal or quadratic, so the
    # trace-form candidate proves most of the CM answers
    x = NumberField(_cyclotomic(n)).element(xc)
    sub = NumberField(x.minimal_polynomial())
    rep = cm_structure(sub)
    assert rep.kind in (TOTALLY_REAL, CM)
    if rep.kind == CM:
        _assert_complex_conjugation(sub.minpoly, rep)


@given(elements)
def test_cm_norm_form_positive(xc):
    # x * conj(x) is zero or totally positive: the roots of its minimal
    # polynomial are all real and positive
    field = F(1, 1, 1, 1, 1)
    rep = cm_structure(field)
    x = field.element(xc)
    if x.is_zero:
        return
    m = (x * apply_conjugation(rep, x)).minimal_polynomial()
    assert count_real_roots(m, 0) == m.degree


# ---------------------------------------------------------------------------
# norms, traces and characteristic polynomials against sympy's resultant


@pytest.fixture(scope="module")
def kernel_fields():
    return [
        rationals_field(),
        F(-13, 0, 1),
        NumberField(QPoly([Fraction(1, 3), Fraction(1, 2), 1])),  # x^2 + x/2 + 1/3
        F(-2, 0, 0, 1),
        F(1, 1, 1, 1, 1),
        F(1, -1, 0, 0, 0, 1),
        F(1, 1, 1, 1, 1, 1, 1),
    ]


coords = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=6)


@given(st.integers(min_value=0, max_value=6), coords)
def test_norm_trace_charpoly_match_sympy(kernel_fields, index, xc):
    # N(a) = Res(m, a) and charpoly(a) = Res_y(m(y), x - a(y)) for monic m;
    # the trace is minus the next-to-leading charpoly coefficient.  sympy
    # takes a reduced modulo m (which leaves both resultants unchanged): its
    # resultant has the wrong sign when deg m < deg a and both are odd, e.g.
    # resultant(y, y**3 + 1, y) == -1 against a Sylvester determinant of 1
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    field = kernel_fields[index]
    a = field.element(xc)
    m = _sympy_poly(field.minpoly.coeffs, y)
    ay = sympy.rem(_sympy_poly(xc, y), m, y)
    assert a.norm_q() == _fraction(sympy.resultant(m, ay, y))
    expected = sympy.Poly(sympy.resultant(m, x - ay, y), x).all_coeffs()
    assert a.charpoly_q() == QPoly([_fraction(c) for c in reversed(expected)])
    assert a.trace_q() == -_fraction(expected[1])


@given(st.integers(min_value=0, max_value=6), coords)
def test_minimal_polynomial_matches_sympy(kernel_fields, index, xc):
    # sympy finds the minimal polynomial of the element as an algebraic number
    # over a root of m, with no characteristic polynomial
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    field = kernel_fields[index]
    a = field.element(xc)
    root = sympy.CRootOf(_sympy_poly(field.minpoly.coeffs, y), 0)
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)]
    expected = sympy.minimal_polynomial(sympy.AlgebraicNumber(root, coeffs or [0]), x, polys=True).monic()
    assert a.minimal_polynomial() == QPoly([_fraction(c) for c in reversed(expected.all_coeffs())])
