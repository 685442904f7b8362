import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from endoscope.errors import ValidationError
from endoscope.numfield import NumberField, rationals_field
from endoscope.qpoly import QPoly, count_real_roots, from_ints
from endoscope.quaternion import (
    MIXED,
    TOTALLY_DEFINITE,
    TOTALLY_INDEFINITE,
    QuatAlgebra,
    definiteness,
    hilbert_symbol,
    is_division,
    rational_quaternion_is_division,
)


@pytest.fixture(scope="module")
def b13():
    base = NumberField(from_ints(-13, 0, 1))
    return QuatAlgebra(base, [-2, -2], [2])


@pytest.fixture(scope="module")
def salem_unit(b13):
    return b13.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))


@pytest.fixture(scope="module")
def hamilton():
    return QuatAlgebra(rationals_field(), -1, -1)


def test_defining_relations(b13):
    i, j, k = b13.gen_i(), b13.gen_j(), b13.gen_k()
    assert i * j == k
    assert j * i == -k
    assert i * i == b13.element(b13.alpha)
    assert j * j == b13.element(b13.beta)
    assert k * k == b13.element(-(b13.alpha * b13.beta))


def test_conjugation(b13, salem_unit):
    assert b13.one().conjugate() == b13.one()
    ipj = b13.gen_i() + b13.gen_j()
    assert ipj.conjugate() == -ipj
    f = salem_unit
    assert f * f.conjugate() == b13.one()


def test_reduced_trace_norm(b13, salem_unit):
    one = b13.one()
    assert one.reduced_trace() == b13.base.element(2)
    assert one.reduced_norm() == b13.base.element(1)
    f = salem_unit
    assert f.reduced_norm() == b13.base.element(1)
    assert f.reduced_trace() == b13.base.element([Fraction(1, 2), Fraction(-1, 2)])


def test_sqrt17_unit_norm():
    base = NumberField(from_ints(-17, 0, 1))
    algebra = QuatAlgebra(base, [10, -6], [2])
    f = algebra.element([Fraction(3, 4), Fraction(-1, 4)], Fraction(1, 4))
    assert f.reduced_norm() == base.element(1)
    assert f.reduced_charpoly_q() == from_ints(1, -3, 0, -3, 1)


def test_sqrt61_unit_norm():
    base = NumberField(from_ints(-61, 0, 1))
    algebra = QuatAlgebra(base, [94, -14], [2])
    f = algebra.element([Fraction(7, 4), Fraction(-1, 4)], Fraction(1, 4))
    assert f.reduced_norm() == base.element(1)
    assert f.reduced_charpoly_q() == from_ints(1, -7, -1, -7, 1)


def test_reduced_charpoly_q_salem(salem_unit):
    assert salem_unit.reduced_charpoly_q() == from_ints(1, -1, -1, -1, 1)


def test_charpoly_q_matches_regular_representation(b13, salem_unit):
    # the multiplication action of f on the 4e-dimensional Q-vector space of
    # the algebra has characteristic polynomial (reduced charpoly)^2
    sympy = pytest.importorskip("sympy")

    f = salem_unit
    e = b13.base.degree
    basis = []
    for w in range(4):
        for t in range(e):
            coords = [[0], [0], [0], [0]]
            poly = [Fraction(0)] * e
            poly[t] = Fraction(1)
            coords[w] = poly
            basis.append(b13.element(*coords))

    def flatten(x):
        out = []
        for part in (x.a, x.b, x.c, x.d):
            out.extend(part.poly[i] for i in range(e))
        return out

    cols = [flatten(f * v) for v in basis]
    mat = sympy.Matrix(4 * e, 4 * e, lambda i, j: sympy.Rational(cols[j][i].numerator, cols[j][i].denominator))
    cp = [Fraction(int(c.p), int(c.q)) for c in reversed(mat.charpoly().all_coeffs())]
    assert QPoly(cp) == f.reduced_charpoly_q() ** 2


def test_definiteness_classification(b13, hamilton):
    assert definiteness(hamilton).kind == TOTALLY_DEFINITE
    rep = definiteness(b13)
    assert rep.kind == TOTALLY_INDEFINITE
    assert all(sa > 0 or sb > 0 for sa, sb in rep.per_embedding_signs)
    base13 = b13.base
    assert definiteness(QuatAlgebra(base13, -1, [-4, 1])).kind == TOTALLY_DEFINITE
    assert definiteness(QuatAlgebra(base13, -1, [0, 1])).kind == MIXED


def test_base_must_be_totally_real():
    with pytest.raises(ValidationError):
        QuatAlgebra(NumberField(from_ints(1, 0, 1)), -1, -1)
    with pytest.raises(ValidationError):
        QuatAlgebra(rationals_field(), 0, 1)


def test_split_witness():
    split = QuatAlgebra(rationals_field(), 1, 1)
    assert is_division(split) is False


def test_witness_none_cases(b13, hamilton):
    assert is_division(hamilton) is True
    assert is_division(b13) is None


def test_hilbert_symbols():
    m1 = Fraction(-1)
    assert hilbert_symbol(m1, m1, 2) == -1
    assert hilbert_symbol(m1, m1, None) == -1
    assert hilbert_symbol(m1, m1, 5) == 1
    assert hilbert_symbol(Fraction(2), m1, None) == 1
    assert rational_quaternion_is_division(m1, m1) is True
    assert rational_quaternion_is_division(Fraction(2), m1) is False
    assert rational_quaternion_is_division(Fraction(1), Fraction(1)) is False
    assert rational_quaternion_is_division(Fraction(-1), Fraction(-7)) is True
    # (p, q) examples with odd primes: (3, 5) splits, (3, -1) does not
    assert rational_quaternion_is_division(Fraction(3), Fraction(-1)) is True


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the block with TimeoutError once seconds of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("b, answer", [(2**61 - 1, True), (2**64 - 59, False), (Fraction(1, 2**61 - 1), True)])
def test_hilbert_places_of_a_large_prime_are_found_in_bounded_time(b, answer):
    # 2^61 - 1 and 2^64 - 59 are primes past any trial division, proved by
    # the Miller-Rabin test; (-1, p) is division exactly when p = 3 mod 4
    with _deadline(1.0):
        assert rational_quaternion_is_division(Fraction(-1), Fraction(b)) is answer


@pytest.mark.parametrize("b", [(2**31 - 1) * (2**61 - 1), 65537 * 65539, (2**89 - 1) * 3**40])
def test_hilbert_places_that_cannot_be_factored_are_refused_in_bounded_time(b):
    # a part free of primes below 2^16 that is composite, or too large for the
    # deterministic Miller-Rabin test, is named in a ValidationError
    with _deadline(1.0), pytest.raises(ValidationError, match=str(b)):
        rational_quaternion_is_division(Fraction(-1), Fraction(b))


coords = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=1, max_size=2
)


def _element(algebra, data):
    a, b, c, d = data
    return algebra.element(a, b, c, d)


quad_elements = st.tuples(coords, coords, coords, coords)


@given(quad_elements, quad_elements)
def test_norm_multiplicative_trace_additive(xd, yd):
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    x, y = _element(algebra, xd), _element(algebra, yd)
    assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
    assert (x + y).reduced_trace() == x.reduced_trace() + y.reduced_trace()


@given(quad_elements)
def test_cayley_hamilton(xd):
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    x = _element(algebra, xd)
    lhs = x * x - x * x.reduced_trace() + algebra.element(x.reduced_norm())
    assert lhs == algebra.zero()


@given(quad_elements)
def test_conjugate_norm_identity(xd):
    base = NumberField(from_ints(-2, 0, 1))
    algebra = QuatAlgebra(base, [0, 1], -1)
    x = _element(algebra, xd)
    n = algebra.element(x.reduced_norm())
    assert x * x.conjugate() == n
    assert x.conjugate() * x == n


@given(quad_elements)
def test_definite_norms_positive(xd):
    algebra = QuatAlgebra(rationals_field(), -1, -1)
    x = _element(algebra, xd)
    if x.is_zero:
        return
    m = x.reduced_norm().minimal_polynomial()
    assert count_real_roots(m, 0) == m.degree


# ---------------------------------------------------------------------------
# reduced characteristic polynomials against sympy's resultant


@pytest.fixture(scope="module")
def kernel_algebras():
    half = NumberField(QPoly([Fraction(-1, 3), Fraction(-1, 2), 1]))  # x^2 - x/2 - 1/3
    cubic = NumberField(from_ints(1, -3, 0, 1))  # totally real, 2cos(2pi/9)
    return [
        QuatAlgebra(rationals_field(), -1, -1),
        QuatAlgebra(NumberField(from_ints(-13, 0, 1)), [-2, -2], [2]),
        QuatAlgebra(half, [Fraction(1, 2), 1], [-3]),
        QuatAlgebra(cubic, [-1], [0, 1]),
    ]


quat_coords = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=1, max_size=3)


@given(st.integers(min_value=0, max_value=3), quat_coords, quat_coords, quat_coords, quat_coords)
def test_reduced_charpoly_matches_sympy(kernel_algebras, index, a, b, c, d):
    # N_{F/Q}(x^2 - Trd x + Nrd) = Res_y(m(y), x^2 - trd(y) x + nrd(y)) for monic m
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    algebra = kernel_algebras[index]
    f = algebra.element(a, b, c, d)

    def at_y(elem):
        return sum(sympy.Rational(q.numerator, q.denominator) * y**i for i, q in enumerate(elem.coeffs))

    m = at_y(algebra.base.minpoly)
    trd, nrd = f.reduced_trace(), f.reduced_norm()
    expected = sympy.Poly(sympy.resultant(m, x**2 - at_y(trd) * x + at_y(nrd), y), x).all_coeffs()
    assert f.reduced_charpoly_q() == QPoly([Fraction(int(q.p), int(q.q)) for q in reversed(expected)])


cubic_coords = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=0, max_size=3
)


@given(st.tuples(cubic_coords, cubic_coords, cubic_coords, cubic_coords))
def test_reduced_norm_over_a_cubic_with_rational_minpoly(xd):
    # reduced_norm sums four weighted squares in Z[x]; check it against
    # x * conj(x), which sums sixteen weighted products, where the minimal
    # polynomial and alpha, beta all have denominators
    base = NumberField(QPoly([Fraction(-1, 2), -2, Fraction(1, 2), 1]))
    algebra = QuatAlgebra(base, [Fraction(-3, 2), 1], [-5, 0, Fraction(-1, 3)])
    x = _element(algebra, xd)
    n = algebra.element(x.reduced_norm())
    assert x * x.conjugate() == n
    assert x.conjugate() * x == n


def test_definiteness_runs_once_per_parsed_algebra(monkeypatch):
    # the Albert gate and check-algebra both read the report; a second parse
    # of the same spec is a new algebra and computes it again
    from endoscope import jobs, quaternion

    calls = []
    signs = quaternion.signs_at_real_roots
    monkeypatch.setattr(quaternion, "signs_at_real_roots", lambda *a: calls.append(a) or signs(*a))
    algebra = {"kind": "quaternion", "base_minpoly": ["-13/1", "0/1", "1/1"], "alpha": ["-2/1", "-2/1"], "beta": ["2/1"]}
    data = {"algebra": algebra, "element": {"a": ["1/4", "-1/4"], "b": ["1/4"], "c": [], "d": []}, "g": 4}
    for parses in (1, 2):
        spec = jobs.parse_spec(data, "spec")
        reports = [jobs.run_command(spec, {"op": op}) for op in ("check-algebra", "classify")]
        assert reports[0]["definiteness"]["kind"] == TOTALLY_INDEFINITE
        assert len(calls) == parses
