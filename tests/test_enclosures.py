import ast
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from endoscope import enclosures
from endoscope.enclosures import (
    INSIDE,
    ON_CIRCLE,
    OUTSIDE,
    ComplexEnclosure,
    _enclosure,
    disk_product,
    isolate_roots,
    root_bound_exponent,
    unit_circle_status,
)
from endoscope.errors import NonSquarefreeInput, ValidationError
from endoscope.cli import main
from endoscope.qpoly import QPoly, X, from_ints

from .oracles import FractionDisk, count_real_roots, reference_side, roots_inside_unit_disk


def test_gaussian_units():
    encl = isolate_roots(from_ints(1, 0, 1), 64)
    assert [(e.re, e.im) for e in encl] == [(0, -1), (0, 1)]
    assert all(e.radius < Fraction(1, 2**60) for e in encl)


def test_sqrt13_real_roots():
    encl = isolate_roots(from_ints(-13, 0, 1), 128)
    assert all(e.is_real for e in encl)
    for e in encl:
        lo, hi = abs(e.re) - e.radius, abs(e.re) + e.radius
        assert lo * lo < 13 < hi * hi


def test_salem_quartic_layout(monkeypatch):
    p = from_ints(1, -1, -1, -1, 1)
    encl = isolate_roots(p, 128)
    # the certificate evaluates q once per real root and once per conjugate
    # pair: a mirrored point's radius is its original's
    c, shifted, polish = enclosures.approximate_roots([1, -1, -1, -1, 1])
    pts, evaluated, horner = polish(192), [], enclosures._horner
    monkeypatch.setattr(enclosures, "_horner", lambda *a: evaluated.append(a[1:3]) or horner(*a))
    assert enclosures._attempt(shifted, c, pts, 192, 124) == encl
    assert len(evaluated) == 3 and sum(im == 0 for _, im in evaluated) == 2
    reals = [e for e in encl if e.is_real]
    others = [e for e in encl if not e.is_real]
    assert len(reals) == 2 and len(others) == 2
    big = max(reals, key=lambda e: e.re)
    small = min(reals, key=lambda e: e.re)
    assert abs(big.re - Fraction(172208, 100000)) < Fraction(1, 100)
    assert abs(small.re - Fraction(58069, 100000)) < Fraction(1, 100)
    # conjugate pair is exact
    assert others[0].conjugate() in others


def test_mirrored_disks_that_meet_are_refused():
    # 2^400 x^2 - 1 has the real roots +-2^-200; the points +-2^-200 i lie
    # off the axis, and their disks, of radius 2^-199 each, meet: only their
    # disjointness could prove a conjugate pair
    u = 400
    pts = [(0, 1 << (u - 200)), (0, -(1 << (u - 200)))]
    assert enclosures._attempt([-1, 0, 1 << 400], 0, pts, u, 124) is None


def test_rational_roots_are_exact():
    encl = isolate_roots(from_ints(-6, 5, -1).monic(), 64)  # monic of -(x-2)(x-3)
    assert {(e.re, e.radius) for e in encl} == {(2, 0), (3, 0)}


def test_sum_and_product_match_coefficients():
    from .oracles import FractionDisk as ComplexEnclosure

    p = from_ints(3, -2, -7, 1, 2)
    encl = isolate_roots(p, 128)
    total = ComplexEnclosure(0, 0, 0)
    prod = ComplexEnclosure(1, 0, 0)
    for e in encl:
        total = total + e
        prod = prod * e
    n = p.degree
    want_sum = -p[n - 1] / p[n]
    want_prod = p[0] / p[n] * (-1) ** n
    assert total.contains_point(want_sum, Fraction(0))
    assert prod.contains_point(want_prod, Fraction(0))


def test_refinement_monotonicity():
    p = from_ints(1, -1, -1, -1, 1)
    radii = [sorted(e.radius for e in isolate_roots(p, bits)) for bits in (64, 128, 256)]
    for coarse, fine in zip(radii, radii[1:]):
        assert all(f <= c for c, f in zip(coarse, fine))


def test_non_squarefree_rejected():
    with pytest.raises(NonSquarefreeInput):
        isolate_roots(from_ints(-1, -1, 1) ** 2)


@pytest.mark.parametrize("bits", [128, 512])
def test_a_repeated_root_is_rejected_before_any_sweep(bits, monkeypatch):
    # at a repeated root the Aberth steps converge only linearly, so a polish
    # of (x^2 + 1)^8 would run to its step cap at every precision: the gcd
    # with the derivative runs first and rejects the input before any sweep
    sweeps, sweep = [], enclosures._sweep
    monkeypatch.setattr(enclosures, "_sweep", lambda *a: sweeps.append(a[-1]) or sweep(*a))
    with pytest.raises(NonSquarefreeInput):
        isolate_roots(from_ints(1, 0, 1) ** 8, bits)
    assert sweeps == []


def _readme_spec():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])["spec"]


def test_irreducible_input_runs_no_squarefree_gcd(tmp_path, capsys, monkeypatch):
    # classify isolates the roots of an irreducible q, which is squarefree, so
    # it calls the kernel behind isolate_roots and runs no gcd with q'
    zeta5 = {"kind": "field", "minpoly": ["1", "1", "1", "1", "1"]}
    zeta5 = {"algebra": zeta5, "element": {"coords": ["0", "1"]}, "g": 2}
    calls, sweeps, gcd, sweep = [], [], QPoly.gcd, enclosures._sweep

    def spy(self, other):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return gcd(self, other)

    monkeypatch.setattr(QPoly, "gcd", spy)
    monkeypatch.setattr(enclosures, "_sweep", lambda *a: sweeps.append(a[-1]) or sweep(*a))
    for spec in (zeta5, _readme_spec()):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"spec": spec, "commands": ["classify"]}))
        assert main(["run", str(job)]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["op"] == "classify"
    assert sweeps and "endoscope.enclosures" not in calls


def test_precision_floor_rejected():
    with pytest.raises(ValidationError):
        isolate_roots(from_ints(1, 0, 1), 32)


def test_enclosure_arithmetic_soundness():
    from .oracles import FractionDisk as ComplexEnclosure

    a = ComplexEnclosure(Fraction(1), Fraction(1), Fraction(1, 100))
    b = ComplexEnclosure(Fraction(2), Fraction(-1), Fraction(1, 100))
    prod = a * b
    # (1+i)(2-i) = 3+i
    assert prod.contains_point(Fraction(3), Fraction(1))
    inv = a.invert()
    # 1/(1+i) = (1-i)/2
    assert inv.contains_point(Fraction(1, 2), Fraction(-1, 2))
    sq = a**2
    assert sq.contains_point(Fraction(0), Fraction(2))


def test_unit_circle_statuses():
    salem = from_ints(1, -1, -1, -1, 1)
    statuses = sorted(s for _, s in unit_circle_status(salem))
    assert statuses == [INSIDE, ON_CIRCLE, ON_CIRCLE, OUTSIDE]
    both_off = unit_circle_status(from_ints(-1, -1, 1))
    assert sorted(s for _, s in both_off) == [INSIDE, OUTSIDE]
    cyclo = unit_circle_status(from_ints(1, 1, 1, 1, 1))
    assert all(s == ON_CIRCLE for _, s in cyclo)
    linear = unit_circle_status(from_ints(1, 1))
    assert [s for _, s in linear] == [ON_CIRCLE]
    # x^2 - x - 3 is not reciprocal: every root off the circle
    assert all(s != ON_CIRCLE for _, s in unit_circle_status(from_ints(-3, -1, 1)))


def _decimal(q: Fraction, digits: int, round_up: bool = False) -> str:
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    scaled = n * 10**digits
    whole, rem = divmod(scaled, d)
    if round_up and rem:
        whole += 1
    s = str(whole).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def enclosure_json(e: ComplexEnclosure) -> dict:
    return {
        "re": _decimal(e.re, 36),
        "im": _decimal(e.im, 36),
        "radius": _decimal(e.radius, 12, round_up=True),
    }


def test_enclosure_json_shape():
    e = ComplexEnclosure(Fraction(1, 3), Fraction(-1, 7), Fraction(1, 10**40))
    blob = enclosure_json(e)
    assert set(blob) == {"re", "im", "radius"}
    assert blob["re"].startswith("0.3333333333")
    assert blob["im"].startswith("-0.142857142857")
    # radius string rounds outward, never under-reporting
    assert Fraction(blob["radius"]) >= e.radius


def test_rounded_is_sound():
    from .oracles import FractionDisk as ComplexEnclosure

    e = ComplexEnclosure(Fraction(10**30 + 1, 3 * 10**30), Fraction(2, 7), Fraction(1, 10**25))
    r = e.rounded(64)
    assert r.re.denominator <= 1 << 64
    # the original disk is contained in the rounded one
    dist_sq = (r.re - e.re) ** 2 + (r.im - e.im) ** 2
    assert dist_sq <= (r.radius - e.radius) ** 2


small_coeffs = st.integers(min_value=-8, max_value=8)


@given(st.lists(small_coeffs, min_size=3, max_size=7))
def test_real_root_count_matches_sturm(coeffs):
    p = QPoly([Fraction(c) for c in coeffs]).squarefree_part()
    if p.degree < 1:
        return
    encl = isolate_roots(p, 64)
    assert sum(1 for e in encl if e.is_real) == count_real_roots(p)


@given(st.lists(small_coeffs, min_size=3, max_size=6))
def test_enclosures_pairwise_disjoint_and_complete(coeffs):
    p = QPoly([Fraction(c) for c in coeffs]).squarefree_part()
    if p.degree < 1:
        return
    encl = isolate_roots(p, 64)
    assert len(encl) == p.degree
    for i, a in enumerate(encl):
        for b in encl[i + 1 :]:
            assert not a.meets(b)


# ---------------------------------------------------------------------------
# the integer disk against the Fraction reference

fine = st.fractions(min_value=-2, max_value=2, max_denominator=2**80)
fine_radii = st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=2**80)


@st.composite
def near_circle_disks(draw):
    """Disks at exact points of |z| = 1, ((1 - t^2) + 2t i) / (1 + t^2),
    moved out or in by a tiny factor, with tiny radii: the disks that the
    square-root bounds find hardest to place."""
    t = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2**20))
    tiny = Fraction(1, 2**40)
    scale = 1 + draw(st.fractions(min_value=-tiny, max_value=tiny, max_denominator=2**90))
    radius = draw(st.fractions(min_value=0, max_value=tiny, max_denominator=2**90))
    n = 1 + t * t
    return ComplexEnclosure((1 - t * t) / n * scale, 2 * t / n * scale, radius)


@settings(max_examples=300)
@given(st.one_of(st.builds(ComplexEnclosure, fine, fine, fine_radii), near_circle_disks()))
@example(ComplexEnclosure(Fraction(3, 5), Fraction(4, 5), 0))  # on the circle
@example(ComplexEnclosure(Fraction(3, 2), 0, Fraction(1, 2)))  # touches it from outside
@example(ComplexEnclosure(0, 0, 1))  # the unit disk itself
@example(ComplexEnclosure(Fraction(1, 10), 0, 3))  # a midpoint inside, but a radius past 1
def test_side_agrees_with_the_square_root_reference(e):
    ref, side = reference_side(e), e.side()
    if ref != ON_CIRCLE:
        assert side == ref  # decides wherever the reference does, and the same way
    # and exactly: every point of the disk on the side it names
    m, r = e.abs_sq_mid(), e.radius
    assert (side == OUTSIDE) == (m > (1 + r) ** 2)
    assert (side == INSIDE) == (r < 1 and m < (1 - r) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_coeffs, min_size=3, max_size=7))
def test_side_of_root_enclosures_agrees_with_the_reference(coeffs):
    p = QPoly([Fraction(c) for c in coeffs]).squarefree_part()
    if p.degree < 1:
        return
    for e in isolate_roots(p, 64):
        ref = reference_side(e)
        assert ref == ON_CIRCLE or e.side() == ref


@given(
    st.builds(ComplexEnclosure, fine, fine, fine_radii),
    st.builds(ComplexEnclosure, fine, fine, fine_radii),
    st.integers(min_value=1, max_value=2**70),
)
def test_meets_eq_and_hash_compare_values_across_denominators(a, b, k):
    scaled = _enclosure(a.re_num * k, a.im_num * k, a.rad_num * k, a.den * k)
    assert (scaled.re, scaled.im, scaled.radius) == (a.re, a.im, a.radius)
    assert scaled == a and hash(scaled) == hash(a) and FractionDisk.of(scaled) == scaled
    assert (scaled == b) == ((a.re, a.im, a.radius) == (b.re, b.im, b.radius))
    assert scaled.conjugate() == FractionDisk(a.re, -a.im, a.radius)
    meets = (a.re - b.re) ** 2 + (a.im - b.im) ** 2 <= (a.radius + b.radius) ** 2
    assert scaled.meets(b) == meets == b.meets(scaled)


def test_a_dyadic_disk_meets_its_rational_point():
    third = ComplexEnclosure(Fraction(1, 3), 0, 0)
    assert third.den == 3
    disk = disk_product([third], 64)  # over 2^64
    assert disk.den == 2**64 and disk.meets(third) and third.meets(disk)
    assert disk != third and hash(FractionDisk.of(disk)) == hash(disk) and FractionDisk.of(disk) == disk
    far = ComplexEnclosure(Fraction(1, 3) + disk.radius * 2 + Fraction(1, 2**70), 0, disk.radius)
    assert not far.meets(disk) and not disk.meets(far)


def test_repr_prints_any_size_and_a_zero_radius_exactly():
    # divided in Decimal, not in floats, which overflow past 10^308
    huge = ComplexEnclosure(Fraction(10**400), 0, Fraction(1, 3))
    assert repr(huge) == "ComplexEnclosure(1.00000000000e+400+0j, r<=0.334)"
    exact = ComplexEnclosure(Fraction(1, 3), Fraction(-2, 7), 0)
    assert repr(exact) == "ComplexEnclosure(0.333333333333-0.285714285714j, r=0)"
    assert repr(ComplexEnclosure(-1, Fraction(1, 10**400), Fraction(1, 4))) == "ComplexEnclosure(-1+1e-400j, r<=0.25)"


@settings(max_examples=60, deadline=None)
@given(st.lists(small_coeffs, min_size=3, max_size=8))
@example([2**260 + 1, -(2**261), 2**260])  # 1 +- 2^-130 i: snapped to the axis at the first precision
@example([2**262 - 1, -(2**263), 2**262])  # 1 +- 2^-131: two real roots 2^-130 apart
def test_roots_are_exactly_real_or_in_exact_conjugate_pairs(coeffs):
    p = QPoly([Fraction(c) for c in coeffs]).squarefree_part()
    if p.degree < 1:
        return
    encl = isolate_roots(p, 64)
    assert len({e.den for e in encl}) == 1  # one denominator per polynomial
    reals = [e for e in encl if e.is_real]
    assert all(e.im_num == 0 and e.im == 0 for e in reals)
    others = [e for e in encl if not e.is_real]
    assert sorted(e.im_num for e in others) == sorted(-e.im_num for e in others)
    assert {e.conjugate() for e in others} == set(others) and len(set(others)) == len(others)


def test_integer_enclosure_paths_build_no_fraction(monkeypatch):
    """The certificate's disks, the side test, meets, conjugates, equality,
    disk_product and the printed decimal all run on the integers."""
    from endoscope.algnum import AlgebraicNumber
    from endoscope.jobs import _certified_decimal

    cluster = _shifted_cyclotomic(100, 5)  # recentred at c = 399/4
    _, ints = cluster.clear_denominators()
    c, shifted, polish = enclosures.approximate_roots(ints)
    assert c == Fraction(399, 4)
    pts, cluster_encl = polish(192), isolate_roots(cluster, 128)
    q = from_ints(1, -1, -1, -1, 1)  # Salem quartic: two real roots, a pair on the circle
    encl, fold = isolate_roots(q, 128), Fraction(-3, 7)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    got = enclosures._attempt(shifted, c, pts, 192, 124)
    sides = [e.side() for e in encl]
    meets = [a.meets(b) for a in encl for b in encl]
    same = [a == b.conjugate() for a in encl for b in encl] + [hash(e) for e in encl]
    disks = [disk_product(encl[:2], 128, 3), disk_product(encl, 64, 2, fold)]
    decimal = _certified_decimal(AlgebraicNumber(q, encl[-1]))
    monkeypatch.undo()
    assert built == []
    assert got == cluster_encl and sorted(sides) == [INSIDE, ON_CIRCLE, ON_CIRCLE, OUTSIDE]
    assert sum(meets) == 4 and sum(same[:16]) == 4 and all(d.den in (2**128, 2**64) for d in disks)
    assert decimal.startswith("1.7220838057")


# a gamma candidate of the g = 8 quaternion job in tests/test_classify.py:
# four real roots between 2^61 and 2^70
BIG_QUARTIC = from_ints(
    6277836010875018348142310082963358602967033778825514356096144188813018836599041,
    -2017341831581391844638575670665786766902595533135092576766212,
    112123550911838970107854981783767800024838,
    -805145760865081575172,
    1,
)


def test_isolate_roots_with_roots_near_2_to_the_67():
    from .oracles import FractionDisk as ComplexEnclosure

    encl = isolate_roots(BIG_QUARTIC, 128)
    assert len(encl) == 4 and all(e.is_real for e in encl)
    for i, a in enumerate(encl):
        for b in encl[i + 1 :]:
            assert not a.meets(b)
    total = ComplexEnclosure(0, 0, 0)
    for e in encl:
        total = total + e
    assert total.contains_point(-BIG_QUARTIC[3], Fraction(0))
    assert root_bound_exponent([int(c) for c in BIG_QUARTIC.coeffs]) >= 70


def _shifted_cyclotomic(shift: int, p: int) -> QPoly:
    """Minimal polynomial of shift + zeta_p for a prime p: Phi_p(x - shift)."""
    return QPoly([1] * p)(X - shift)


@pytest.mark.parametrize("shift, p", [(10**6, 7), (100, 13), (300, 13), (5000, 11)])
def test_isolate_roots_of_a_tight_cluster_far_from_zero(shift, p):
    # the roots shift + zeta_p^k lie on a unit circle around shift; the seeds
    # are found after moving the cluster's centroid to 0
    encl = isolate_roots(_shifted_cyclotomic(shift, p), 128)
    assert len(encl) == p - 1
    for i, a in enumerate(encl):
        for b in encl[i + 1 :]:
            assert not a.meets(b)
        assert abs((a.re - shift) ** 2 + a.im**2 - 1) < Fraction(1, 2**100)


@pytest.mark.parametrize("shift, p", [(10**6, 7), (300, 13)])
def test_centroid_shift_matches_the_rational_taylor_shift(shift, p):
    # the integer Horner shift is the primitive part of p(x + c) over Q
    ints = _shifted_cyclotomic(shift, p).clear_denominators()[1]
    c, shifted, _ = enclosures.approximate_roots(ints)
    assert c == shift - Fraction(1, p - 1)
    assert shifted == QPoly(ints)(X + c).clear_denominators()[1]


def test_field_job_on_a_cluster_far_from_zero(tmp_path, capsys):
    minpoly = _shifted_cyclotomic(10**6, 7).to_json()
    job = {
        "spec": {"algebra": {"kind": "field", "minpoly": minpoly}, "element": {"coords": ["0/1", "1/1"]}, "g": 3},
        "commands": ["check-algebra", "classify"],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    check, classify = report["results"]
    assert check["field_type"] == "CM" and check["charpoly_q"] == minpoly
    assert classify["growth"]["class"] == "ExponentialPure"


@given(
    st.lists(st.integers(min_value=-(2**90), max_value=2**90), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=2**40),
)
@example(low=[-3, -3], lead=2)  # a root at 2.19: the bound needs Fujiwara's factor 2
def test_root_bound_exponent_bounds_every_root(low, lead):
    ints = low + [lead]
    if not any(low):
        return
    k = root_bound_exponent(ints)
    assert k >= 0
    # every root of p(2^k y) strictly inside the unit disk, by an exact
    # Schur-Cohn count
    assert roots_inside_unit_disk([c << (k * j) for j, c in enumerate(ints)]), f"a root of {ints} is not below 2^{k}"


def _product(*factors: QPoly) -> QPoly:
    out = QPoly([1])
    for f in factors:
        out = out * f
    return out


def _mignotte(n: int, a: int) -> QPoly:
    """x^n - 2(ax - 1)^2: two real roots within about a^(-(n+2)/2) of 1/a."""
    return X**n - 2 * (a * X - 1) ** 2


HARD_CASES = {
    "wilkinson-20": _product(*[X - i for i in range(1, 21)]),
    "mignotte-8-10": _mignotte(8, 10),
    "mignotte-12-100": _mignotte(12, 100),
    "mignotte-20-1000": _mignotte(20, 1000),
    "wide-quartic": (X - 130000) * (X - 10**9 - 7) * (X**2 - 3 * 10**15 * X + 2),
    # palindromic: Newton-polygon edges of equal radius
    "palindromic-8": from_ints(1, -2, -1, -2, 0, -2, -1, -2, 1),
    "x^24-x-1": X**24 - X - 1,
    # the centroid 10^8/31 is far from every root: recentred there, the 30
    # roots of unity would form a cluster 2^-21 wide at the scale of 10^8
    "far-root-and-phi-31": (X - 10**8) * QPoly([1] * 31),
    # coefficients past the double range; roots near +-10^200 and 10^-400
    "huge-coefficient": X**3 - 10**400 * X + 1,
    # 1 +- 2^-130 i: one exact conjugate pair, never two real roots
    "near-axis-pair": 2**260 * (X - 1) ** 2 + 1,
    # 1 +- 2^-131: two real roots 2^-130 apart
    "close-real-pair": 2**262 * (X - 1) ** 2 - 1,
}


def test_a_pair_near_the_axis_is_certified_at_the_first_precision(monkeypatch):
    # 1 +- 2^-130 i, 2^-130 off the axis at 128 bits: the first points are
    # certified as they are, one conjugate pair, with no point moved onto the axis
    attempts, attempt = [], enclosures._attempt
    monkeypatch.setattr(enclosures, "_attempt", lambda *a: attempts.append(a[3]) or attempt(*a))
    lower, upper = isolate_roots(HARD_CASES["near-axis-pair"], 128)
    assert len(attempts) == 1
    assert upper.im > 0 and lower == upper.conjugate()


@pytest.mark.parametrize("name", HARD_CASES)
def test_hard_cases_isolate(name):
    from .oracles import FractionDisk as ComplexEnclosure

    p = HARD_CASES[name]
    encl = isolate_roots(p, 128)  # escalates internally up to MAX_BITS
    assert len(encl) == p.degree
    for i, a in enumerate(encl):
        for b in encl[i + 1 :]:
            assert not a.meets(b)
    assert sum(1 for e in encl if e.is_real) == count_real_roots(p)
    total = ComplexEnclosure(0, 0, 0)
    for e in encl:
        total = total + e
    n = p.degree
    assert total.contains_point(-p[n - 1] / p[n], Fraction(0))


def test_wilkinson_roots_are_exact():
    encl = isolate_roots(HARD_CASES["wilkinson-20"], 128)
    assert [(e.re, e.radius) for e in encl] == [(i, 0) for i in range(1, 21)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-(2**12), max_value=2**12), min_size=3, max_size=9))
def test_every_disk_holds_exactly_one_mpmath_root(coeffs):
    mpmath = pytest.importorskip("mpmath")
    p = QPoly([Fraction(c) for c in coeffs]).squarefree_part()
    if p.degree < 1:
        return
    encl = isolate_roots(p, 64)
    _, ints = p.clear_denominators()
    with mpmath.mp.workprec(1024):
        roots, err = mpmath.polyroots(list(reversed(ints)), maxsteps=500, extraprec=1024, error=True)

        def inside(e, r):
            mid = mpmath.mpc(mpmath.mpf(e.re.numerator) / e.re.denominator, mpmath.mpf(e.im.numerator) / e.im.denominator)
            return abs(r - mid) <= mpmath.mpf(e.radius.numerator) / e.radius.denominator + err

        assert err < mpmath.mpf(2) ** -200
        for e in encl:
            assert sum(1 for r in roots if inside(e, r)) == 1


# the package's layers, lowest first, and the modules that may import mpmath
# or dataclasses: none (dataclasses loads inspect, ast, dis and tokenize at start-up)
LAYERS = (
    "errors", "qpoly", "factorq", "enclosures", "numfield", "algnum", "quaternion", "lefschetz", "classify", "jobs", "cli"
)
MPMATH_USERS = ()
DATACLASSES_USERS = ()


def _imported_modules(tree: ast.AST):
    """Dotted names of the modules every import in tree reads, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "endoscope" + (f".{node.module}" if node.module else "") if node.level else node.module
            yield from ([f"{base}.{a.name}" for a in node.names] if base == "endoscope" else [base])


def _unused_imports(tree: ast.Module, lines: list[str]):
    """Names a module-level import binds that the module never reads, except
    on lines marked "# noqa: F401" (deliberate re-exports)."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    yield bound


def test_enclosures_does_not_import_mpmath():
    """Every module imports only endoscope modules below it in LAYERS, no
    module imports mpmath or dataclasses, and no module keeps an import it
    never uses."""
    package = Path(enclosures.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)
    for rank, name in enumerate(LAYERS):
        source = (package / f"{name}.py").read_text(encoding="utf-8")
        tree = ast.parse(source)
        for module in _imported_modules(tree):
            top, _, rest = module.partition(".")
            if top == "mpmath":
                assert name in MPMATH_USERS, f"{name} imports mpmath"
            if top == "dataclasses":
                assert name in DATACLASSES_USERS, f"{name} imports dataclasses"
            if top == "endoscope":
                assert rest.split(".")[0] in LAYERS[:rank], f"{name} imports {module}, not below it"
        unused = list(_unused_imports(tree, source.splitlines()))
        assert not unused, f"{name} imports {unused} and never uses them"


def test_only_qpoly_knows_a_json_shape():
    """jobs.parse_spec is the one reader of a spec: no module defines
    from_json, and the only to_json is QPoly's, which spells coefficients."""
    package = Path(enclosures.__file__).parent
    serializers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, tree)] + [(f"{path.stem}.{c.name}", c) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        serializers += [
            f"{owner}.{node.name}"
            for owner, scope in scopes
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("to_json", "from_json")
        ]
    assert serializers == ["qpoly.QPoly.to_json"]


def _names_read(tree: ast.AST):
    """Every name tree reads: bare names, attributes and names imported from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _definitions(tree: ast.Module):
    """(name, defining node) for every module-level function, class and
    assigned name, and every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = (name for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
            yield from ((name.id, node) for name in names)


def test_every_private_function_has_a_caller_in_the_package():
    """A private module-level function, class or constant, or a private
    method, that nothing in src/endoscope reads outside its own definition is
    dead code, even while tests still use it."""
    package = Path(enclosures.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    private = [
        (module, name, node)
        for module, tree in sorted(trees.items())
        for name, node in _definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert {"_polish", "_coerce", "_LN2"} <= {name for _, name, _ in private}  # a function, a method, a constant
    dead = [f"{module}.{name}" for module, name, node in private if read[name] == Counter(_names_read(node))[name]]
    assert not dead, f"private definitions without a reader in the package: {dead}"


def test_a_fixpoints_job_never_loads_mpmath(tmp_path):
    """No module of the package imports mpmath: with every import of it made
    to fail, each op of a job on a CM field, paper-examples in both formats
    and the salem command still exit 0.  The interpreter runs with -S, so that
    no site hook loads a module first, and afterwards neither dataclasses nor
    inspect is loaded."""
    job = tmp_path / "job.json"
    zeta5 = {"kind": "field", "minpoly": ["1/1", "1/1", "1/1", "1/1", "1/1"]}
    spec = {"algebra": zeta5, "element": {"coords": ["1/1", "1/1"]}, "g": 2}
    salem = {"op": "salem", "poly": ["1/1", "-1/1", "-1/1", "-1/1", "1/1"]}
    commands = ["check-algebra", {"op": "fixpoints", "nmax": 5}, "classify", "entropy", salem]
    job.write_text(json.dumps({"spec": spec, "commands": commands}))
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import endoscope.cli\n"
        "codes = []\n"
        f"for argv in (['run', {str(job)!r}], ['paper-examples'], ['paper-examples', '--json'], ['salem', '1,-7,-1,-7,1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(endoscope.cli.main(argv))\n"
        "print(codes, [m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(enclosures.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[0, 0, 0, 0] []", done.stderr


def _three_scales(e: int) -> QPoly:
    """x^3 - (2^e + 1) x^2 + (2^e - 1) x + 2, irreducible as none of +-1, +-2
    is a root, with roots near 2^e, 1 + 2^-e and -2^-e."""
    return from_ints(2, 2**e - 1, -(2**e + 1), 1)


def test_a_seed_below_2_to_the_minus_1000_is_converted_exactly():
    # the seed of the root -2^-1000, scaled by the root bound 2^1001, is
    # below 2^-2000: it must not round to 0, where the seed of 1 + 2^-1000 lands too
    assert enclosures._fixed(2.0**-1050, 1100) == 2**50
    assert [enclosures._fixed(x, 0) for x in (0.5, 1.5, 2.5, -0.5, -2.5)] == [0, 2, 2, 0, -2]  # as round()
    p = _three_scales(1000)
    encl = isolate_roots(p, 128)
    assert len(encl) == 3 and all(e.is_real for e in encl)
    for e in encl:  # p changes sign across each disk
        assert p(e.re - e.radius) * p(e.re + e.radius) < 0
    small, near_one, large = encl
    assert abs(small.re) < Fraction(1, 2**999) and abs(near_one.re - 1) < Fraction(1, 2**120) and large.re > 2**999


def test_entropy_of_a_field_with_roots_at_three_scales(tmp_path, capsys):
    # f = x in the totally real cubic field of _three_scales(1000): the
    # entropy is twice the sum of log|mu| over the two roots outside the circle
    minpoly = _three_scales(1000)
    job = {
        "spec": {"algebra": {"kind": "field", "minpoly": minpoly.to_json()}, "element": {"coords": ["0/1", "1/1"]}, "g": 3},
        "commands": ["entropy"],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["run", str(path)]) == 0
    value = json.loads(capsys.readouterr().out)["results"][0]["entropy"]["value_decimal"]
    assert value == "1386.29436111989062"
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(40):
        roots = mpmath.polyroots([int(c) for c in reversed(minpoly.coeffs)], maxsteps=200, extraprec=3000)
        expected = 2 * sum(mpmath.log(abs(r)) for r in roots if abs(r) > 1)
        assert abs(expected - mpmath.mpf(value)) < mpmath.mpf(10) ** -14


def test_a_root_within_the_first_radius_of_the_circle_is_isolated_again(monkeypatch):
    # 1 + ~2^-300 lies within the radius of its 128-bit enclosure from
    # |z| = 1, which no root of the irreducible cubic is on; at 256 bits its
    # disk is outside the circle
    bits = []
    isolate = enclosures._isolate

    def spy(q, precision_bits):
        bits.append(precision_bits)
        return isolate(q, precision_bits)

    monkeypatch.setattr(enclosures, "_isolate", spy)
    statuses = unit_circle_status(_three_scales(300))
    assert bits == [128, 256]
    assert [side for _, side in statuses] == [INSIDE, OUTSIDE, OUTSIDE]
