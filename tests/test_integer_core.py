"""The integer-backed QPoly against the plain Fraction-tuple reference in
tests/oracles.py: every operation gives the same coefficients, and every
result is in canonical form (den > 0, gcd(content(num), den) = 1, no trailing
zeros), so equal polynomials compare and hash equal.  NFElement and
QuatElement arithmetic, which runs on QPoly, is checked the same way, and
they and ComplexEnclosure are immutable values.  The
integer kernels resultant_int, behind every norm, and reduced_norm_int,
behind chi, are checked against sympy and against x * conj(x)."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from endoscope.enclosures import ComplexEnclosure, _enclosure
from endoscope.numfield import NFElement, NumberField
from endoscope.qpoly import QPoly, from_ints, multiplication_columns, power_sums, resultant, resultant_int
from endoscope.quaternion import QuatAlgebra, reduced_norm_int

from .oracles import (
    quaternion_product,
    ref_add,
    ref_compose_mod,
    ref_derivative,
    ref_divmod,
    ref_gcd,
    ref_monic,
    ref_mul,
    ref_neg,
    ref_pow_mod,
    ref_power_sums,
    ref_resultant,
    ref_scale,
    ref_sub,
    ref_trim,
    ref_xgcd,
)

small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
large = st.builds(Fraction, st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=1, max_value=2**35))
rationals = st.one_of(small, small, large)
coeff_lists = st.lists(rationals, max_size=6)
nonzero_lists = coeff_lists.filter(lambda cs: any(cs))
scalars = st.one_of(st.integers(min_value=-(2**40), max_value=2**40), rationals)


def canonical(p: QPoly, ref: tuple) -> bool:
    """p has the coefficients ref and its fields are in canonical form."""
    assert p.den > 0 and all(type(c) is int for c in p.num)
    assert not p.num or p.num[-1] != 0
    assert gcd(p.den, *p.num) == 1
    assert p.coeffs == ref
    return True


@given(coeff_lists, st.integers(min_value=1, max_value=10**6))
def test_construction_is_canonical_and_equal_polynomials_hash_equal(cs, k):
    p = QPoly(cs)
    assert canonical(p, ref_trim(cs))
    # the same coefficients as unreduced strings n*k / d*k
    q = QPoly([f"{c.numerator * k}/{c.denominator * k}" for c in cs])
    assert q == p and hash(q) == hash(p) and (q.num, q.den) == (p.num, p.den)


@given(coeff_lists, coeff_lists)
def test_add_sub_neg(a, b):
    pa, pb, ra, rb = QPoly(a), QPoly(b), ref_trim(a), ref_trim(b)
    assert canonical(pa + pb, ref_add(ra, rb))
    assert canonical(pa - pb, ref_sub(ra, rb))
    assert canonical(-pa, ref_neg(ra))
    back = (pa + pb) - pb
    assert back == pa and hash(back) == hash(pa)


@given(coeff_lists, scalars)
def test_mul_by_scalar(a, c):
    assert canonical(QPoly(a) * c, ref_scale(ref_trim(a), c))
    assert canonical(c * QPoly(a), ref_scale(ref_trim(a), c))


@given(coeff_lists, coeff_lists)
def test_mul_by_polynomial(a, b):
    assert canonical(QPoly(a) * QPoly(b), ref_mul(ref_trim(a), ref_trim(b)))


@given(coeff_lists, nonzero_lists)
def test_divmod(a, b):
    q, r = QPoly(a).divmod(QPoly(b))
    rq, rr = ref_divmod(ref_trim(a), ref_trim(b))
    assert canonical(q, rq) and canonical(r, rr)
    assert canonical(QPoly(a) % QPoly(b), rr)


@given(coeff_lists, st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=4))
def test_divmod_by_a_monic_integer_polynomial(a, low):
    m = low + [1]
    q, r = QPoly(a).divmod(QPoly(m))
    rq, rr = ref_divmod(ref_trim(a), ref_trim(m))
    assert canonical(q, rq) and canonical(r, rr)


@given(coeff_lists, coeff_lists)
def test_gcd(a, b):
    assert canonical(QPoly(a).gcd(QPoly(b)), ref_gcd(ref_trim(a), ref_trim(b)))


@given(coeff_lists)
def test_monic_derivative_and_reciprocal(a):
    p, ra = QPoly(a), ref_trim(a)
    assert canonical(p.monic(), ref_monic(ra))
    assert canonical(p.derivative(), ref_derivative(ra))
    assert canonical(p.reciprocal(), ref_trim(ra[::-1]))


@given(coeff_lists, nonzero_lists, st.integers(min_value=0, max_value=8))
def test_pow_mod(a, m, n):
    assert canonical(QPoly(a).pow_mod(n, QPoly(m)), ref_pow_mod(ref_trim(a), n, ref_trim(m)))


@given(coeff_lists, coeff_lists, nonzero_lists)
def test_compose_mod(p, inner, m):
    got = QPoly(p).compose_mod(QPoly(inner), QPoly(m))
    assert canonical(got, ref_compose_mod(ref_trim(p), ref_divmod(ref_trim(inner), ref_trim(m))[1], ref_trim(m)))


@given(nonzero_lists, nonzero_lists)
def test_resultant(a, b):
    got = resultant(QPoly(a), QPoly(b))
    assert isinstance(got, Fraction) and got == ref_resultant(ref_trim(a), ref_trim(b))


@given(nonzero_lists, st.integers(min_value=0, max_value=12))
def test_power_sums(a, count):
    assert power_sums(QPoly(a), count) == ref_power_sums(ref_trim(a), count)


FIELDS = [
    NumberField(from_ints(-2, 0, 1)),
    NumberField(from_ints(1, 1, 1, 1, 1)),
    NumberField(from_ints(-1, -3, 0, 1)),
    NumberField(QPoly([Fraction(-1, 3), 0, 1])),  # monic with a rational coefficient
]
fields = st.sampled_from(FIELDS)


def coords(field_degree: int):
    return st.lists(rationals, max_size=field_degree)


@given(fields, st.data())
def test_number_field_mul_and_inverse(field, data):
    e, m = field.degree, ref_trim(field.minpoly.coeffs)
    a, b = data.draw(coords(e)), data.draw(coords(e))
    x, y = field.element(a), field.element(b)
    assert canonical((x * y).poly, ref_divmod(ref_mul(ref_trim(a), ref_trim(b)), m)[1])
    if not x.is_zero:
        # x times its reference inverse reduces to exactly 1
        g, u, _ = ref_xgcd(ref_trim(a), m)
        assert g == (Fraction(1),)
        assert x * field.element(list(ref_divmod(u, m)[1])) == field.one()


QUAT = QuatAlgebra(NumberField(from_ints(-13, 0, 1)), [-2, -2], [2])


def ref_quat_mul(p, q, alpha, beta, m):
    """(a1 + b1 i + c1 j + d1 k)(a2 + b2 i + c2 j + d2 k) with i^2 = alpha, j^2 = beta, ij = -ji = k."""

    def mul(*factors):
        out = (Fraction(1),)
        for f in factors:
            out = ref_divmod(ref_mul(out, f), m)[1]
        return out

    def total(*terms):
        out = ()
        for sign, term in terms:
            out = ref_add(out, term) if sign > 0 else ref_sub(out, term)
        return out

    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        total((1, mul(a1, a2)), (1, mul(alpha, b1, b2)), (1, mul(beta, c1, c2)), (-1, mul(alpha, beta, d1, d2))),
        total((1, mul(a1, b2)), (1, mul(b1, a2)), (-1, mul(beta, c1, d2)), (1, mul(beta, d1, c2))),
        total((1, mul(a1, c2)), (1, mul(c1, a2)), (1, mul(alpha, b1, d2)), (-1, mul(alpha, d1, b2))),
        total((1, mul(a1, d2)), (1, mul(d1, a2)), (1, mul(b1, c2)), (-1, mul(c1, b2))),
    )


@given(st.lists(coords(2), min_size=4, max_size=4), st.lists(coords(2), min_size=4, max_size=4))
def test_quaternion_mul(p, q):
    x, y = QUAT.element(*p), QUAT.element(*q)
    m = ref_trim(QUAT.base.minpoly.coeffs)
    alpha, beta = QUAT.alpha.poly.coeffs, QUAT.beta.poly.coeffs
    want = ref_quat_mul([ref_trim(c) for c in p], [ref_trim(c) for c in q], alpha, beta, m)
    prod = x * y
    for got, ref in zip((prod.a, prod.b, prod.c, prod.d), want):
        assert canonical(got.poly, ref)


# ---------------------------------------------------------------------------
# the integer kernels of the norm path against independent code


def _random_monic(rng, degree: int, rational: bool) -> QPoly:
    den = (lambda: rng.randint(1, 6)) if rational else (lambda: 1)
    return QPoly([Fraction(rng.randint(-9, 9), den()) for _ in range(degree)] + [1])


def test_resultant_int_against_sympy():
    # Res(m, w / s) on integer w over a denominator s, m of degree 1..8 with
    # integer or rational coefficients and leading coefficient 1, -1, 2, -3 or
    # 5; w may be zero, constant, longer than deg m (then reduced modulo m) or
    # end in zeros
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y")
    rng = random.Random(15)

    def at_y(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * y**i for i, c in enumerate(coeffs))

    for degree in range(1, 9):
        for rational in (False, True):
            for lead in (1, 1, 1, 1, -1, 2, -3, 5):
                m = _random_monic(rng, degree, rational) * lead
                w = [rng.randint(-50, 50) for _ in range(rng.randint(0, degree + 2))] + [0] * rng.randint(0, 2)
                s = rng.randint(1, 12)
                num, den = resultant_int(m.num, m.den, w, s)
                expected = sympy.resultant(at_y(m.coeffs), at_y([Fraction(c, s) for c in w]), y)
                assert den > 0 and Fraction(num, den) == Fraction(int(expected.p), int(expected.q)), (m, w, s)


NORM_ALGEBRAS = [
    QUAT,
    QuatAlgebra(NumberField(from_ints(-1, -2, 1, 1)), [-1], [-1]),
    QuatAlgebra(NumberField(QPoly([Fraction(-1, 2), 0, 1])), [Fraction(-3, 2), 1], [-1, Fraction(1, 3)]),
    QuatAlgebra(NumberField(QPoly([Fraction(-1, 2), -2, Fraction(1, 2), 1])), [Fraction(-3, 2), 1], [-5, 0, Fraction(-1, 3)]),
    QuatAlgebra(NumberField(from_ints(0, 1)), [Fraction(-2, 3)], [-7]),
]


def test_reduced_norm_int_against_conjugate_product():
    # Nrd(x) is the a-coordinate of x * conj(x), which the textbook product
    # computes with a reduction after every field multiplication and without
    # the integer norm form; b, c and d vanish
    rng = random.Random(15)
    for algebra in NORM_ALGEBRAS:
        e = algebra.base.degree
        for _ in range(25):
            coords = [[rng.randint(-30, 30) for _ in range(rng.randint(0, e))] for _ in range(4)]
            s = rng.randint(1, 12)
            r, t = reduced_norm_int(algebra, coords, s)
            assert t > 0 and len(r) <= e
            x = algebra.element(*([Fraction(c, s) for c in part] for part in coords))
            product = quaternion_product(x, x.conjugate())
            assert QPoly([Fraction(c, t) for c in r]) == product.a.poly
            assert product.b.is_zero and product.c.is_zero and product.d.is_zero


def quaternions(algebra, data):
    return algebra.element(*(data.draw(coords(algebra.base.degree)) for _ in range(4)))


@given(st.sampled_from(NORM_ALGEBRAS), st.data())
def test_quaternion_mul_against_field_arithmetic(algebra, data):
    # the product on integer coordinates (16 convolutions weighted by the
    # integer norm form, one reduction per coordinate) against the textbook
    # formula on field elements, where the minimal polynomial, alpha and beta
    # have denominators
    x, y = quaternions(algebra, data), quaternions(algebra, data)
    got, want = x * y, quaternion_product(x, y)
    for g, w in zip((got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)):
        assert canonical(g.poly, w.poly.coeffs)


@given(st.sampled_from(NORM_ALGEBRAS), st.data())
def test_reduced_norm_is_multiplicative(algebra, data):
    x, y = quaternions(algebra, data), quaternions(algebra, data)
    assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()


monic_moduli = st.lists(rationals, min_size=1, max_size=5).map(lambda cs: QPoly(cs + [1]))


@given(monic_moduli, st.lists(st.integers(min_value=-(2**60), max_value=2**60), max_size=9), st.integers(1, 10**6))
def test_multiplication_columns(m, b, db):
    # column k is x^k b / db mod m, for any monic m over Q and b of any degree
    cols, den = multiplication_columns(m.num, m.den, b, db)
    assert len(cols) == m.degree and den > 0
    rb, rm = ref_trim(Fraction(c, db) for c in b), ref_trim(m.coeffs)
    for k, col in enumerate(cols):
        assert len(col) == m.degree
        assert ref_trim(Fraction(c, den) for c in col) == ref_divmod(ref_mul((0,) * k + (1,), rb), rm)[1]


def test_compose_mod_against_sympy_with_a_rational_modulus():
    # p(inner) mod m, m neither monic nor integral
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y")
    rng = random.Random(17)

    def draw(size):
        return [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(size)]

    def at_y(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * y**i for i, c in enumerate(coeffs))

    for degree in range(1, 6):
        for _ in range(6):
            m = draw(degree) + [Fraction(rng.choice([-1, 1]) * rng.randint(2, 7), rng.randint(1, 9))]
            p, inner = draw(rng.randint(0, 7)), draw(rng.randint(0, 7))
            got = QPoly(p).compose_mod(QPoly(inner), QPoly(m))
            expected = sympy.rem(sympy.expand(at_y(p).subs(y, at_y(inner))), at_y(m), y)
            assert sympy.expand(at_y(got.coeffs) - expected) == 0, (p, inner, m)
            rm = ref_trim(m)
            assert canonical(got, ref_compose_mod(ref_trim(p), ref_divmod(ref_trim(inner), rm)[1], rm))


def test_elements_and_enclosures_are_immutable_and_hash_by_value():
    # NFElement, QuatElement and ComplexEnclosure are named tuples: no field
    # can be assigned and no attribute added, equal values hash equally, and
    # != is the negation of their own ==, not the tuple's
    def field():
        return NumberField(from_ints(-13, 0, 1))

    def algebra():
        return QuatAlgebra(field(), [-2, -2], [2])

    x = NFElement(field(), QPoly((1, Fraction(1, 3), 0, 1)))  # reduced modulo x^2 - 13
    assert x.poly == QPoly((1, Fraction(40, 3)))
    q = algebra().element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    e = ComplexEnclosure(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6))  # on one denominator
    assert tuple(e) == (3, -2, 1, 6)
    twins = [
        (x, field().element([1, Fraction(40, 3)])),
        (q, algebra().element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))),
        (e, _enclosure(6, -4, 2, 12)),
    ]
    for a, b in twins:
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != tuple(a) and not a == tuple(a)  # equality is not the tuple's
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            a.note = "no attribute beyond the fields"
    one, unit = field().one(), algebra().one()
    assert one == 1 and not one != 1 and one != 2 and x != 1
    assert unit == 1 and not unit != 1 and q != 1
