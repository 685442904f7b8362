"""Every power entry point agrees with repeated multiplication.

All of them run on the one square-and-multiply loop, qpoly.binary_power; the
enclosure powers round, so for them the check is that the result still holds
the exact power of every point of the base disk that is tested.  The integer
disk kernel, enclosures.disk_product, is checked the same way on products,
powers and folds.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from endoscope.enclosures import ComplexEnclosure, disk_product
from endoscope.errors import ValidationError
from endoscope.factorq import _zpow_mod
from endoscope.numfield import NumberField
from endoscope.qpoly import ONE, QPoly, from_ints
from endoscope.quaternion import QuatAlgebra

from .oracles import FractionDisk, pow_rounded

exponents = st.integers(min_value=0, max_value=12)
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.lists(small, max_size=4).map(QPoly)
moduli = st.lists(small, min_size=1, max_size=3).map(lambda cs: QPoly(cs + [1]))

ZETA5 = NumberField(from_ints(1, 1, 1, 1, 1))
QUAT = QuatAlgebra(NumberField(from_ints(-13, 0, 1)), [-2, -2], [2])


def repeated(base, n, one):
    result = one
    for _ in range(n):
        result = result * base
    return result


@given(polys, exponents)
def test_qpoly_pow(p, n):
    assert p**n == repeated(p, n, ONE)


@given(polys, moduli, exponents)
def test_pow_mod(p, mod, n):
    assert p.pow_mod(n, mod) == repeated(p, n, ONE) % mod


@given(st.lists(small, min_size=1, max_size=4), exponents)
def test_number_field_pow(coords, n):
    x = ZETA5.element(coords)
    assert x**n == repeated(x, n, ZETA5.one())


def test_negative_powers_raise():
    # no inverses: a negative exponent is rejected, as for polynomials and quaternions
    for x in (ZETA5.gen(), QUAT.one(), ONE):
        with pytest.raises(ValidationError):
            x**-1


@given(st.lists(st.lists(small, max_size=2), min_size=4, max_size=4), exponents)
def test_quaternion_pow(coords, n):
    x = QUAT.element(*coords)
    assert x**n == repeated(x, n, QUAT.one())


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
    st.sampled_from([3, 7, 101]),
    exponents,
)
def test_zpow_mod_matches_a_naive_loop(a, f_low, p, n):
    f = f_low + [1]
    # f is monic, so remainders by f stay integral and reducing mod p commutes with them
    naive = repeated(QPoly(a), n, ONE) % QPoly(f)
    naive_mod_p = [int(c) % p for c in naive.coeffs]
    while naive_mod_p and not naive_mod_p[-1]:
        naive_mod_p.pop()
    assert _zpow_mod(a, n, f, p) == naive_mod_p


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _points(e: ComplexEnclosure):
    """The midpoint and four points on the boundary of the disk."""
    r = e.radius
    return [(e.re, e.im), (e.re + r, e.im), (e.re - r, e.im), (e.re, e.im + r), (e.re, e.im - r)]


radii = st.fractions(min_value=0, max_value=Fraction(1, 8), max_denominator=64)
disks = st.builds(FractionDisk, small, small, radii)


@given(disks, exponents, st.sampled_from([None, 16, 64]))
def test_enclosure_powers_hold_the_exact_power(e, n, bits):
    power = e**n if bits is None else pow_rounded(e, n, bits)
    for z in _points(e):
        exact = (Fraction(1), Fraction(0))
        for _ in range(n):
            exact = _cmul(exact, z)
        assert power.contains_point(*exact)


# non-dyadic midpoints and radii (denominators up to 30), radius 0 and real
# disks included; midpoints near 0 leave the least slack over the rounding
mids = st.fractions(min_value=-1, max_value=1, max_denominator=30)
kernel_disks = st.builds(
    ComplexEnclosure,
    mids,
    st.one_of(st.just(Fraction(0)), mids),
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=30)),
)


@settings(max_examples=200)
@example(  # a product step's snap that only its own pad unit covers
    [ComplexEnclosure(Fraction(-3, 5), Fraction(-10, 11), Fraction(2, 9)), ComplexEnclosure(Fraction(-1, 5), 0, 0)],
    4,
    8,
    Fraction(-24, 5),
)
@example([ComplexEnclosure(Fraction(1, 6), 0, Fraction(2, 11))], 1, 2, Fraction(2))  # the input's radius rounded up
@given(
    st.lists(kernel_disks, max_size=3),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 4, 8, 64]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
def test_disk_product_holds_the_exact_product_power_and_fold(encl, m, bits, fold):
    plain, power = FractionDisk.of(disk_product(encl, bits)), FractionDisk.of(disk_product(encl, bits, m))
    try:
        folded = FractionDisk.of(disk_product(encl, bits, m, fold))
    except ValidationError:
        folded = None  # refused only when the power's disk holds 0
        assert power.contains_point(0, 0)
    for zs in product(*(_points(e) for e in encl)):
        w = (Fraction(1), Fraction(0))
        for z in zs:
            w = _cmul(w, z)
        assert plain.contains_point(*w)
        wm = (Fraction(1), Fraction(0))
        for _ in range(m):
            wm = _cmul(wm, w)
        assert power.contains_point(*wm)
        if folded is not None:
            den = wm[0] * wm[0] + wm[1] * wm[1]  # nonzero: wm is in a disk without 0
            assert folded.contains_point(wm[0] + fold * wm[0] / den, wm[1] - fold * wm[1] / den)
    if all(e.is_real for e in encl):
        assert power.im == 0 and (folded is None or folded.im == 0)
