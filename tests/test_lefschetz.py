import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from endoscope import cli, factorq, jobs, lefschetz, qpoly, quaternion
from endoscope.classify import classify_growth, entropy, is_salem_polynomial, rational_eigenvalues
from endoscope.errors import CrossCheckError, DivisibilityViolation, EndoscopeError, NonIntegralElement
from endoscope.errors import ValidationError
from endoscope.lefschetz import (
    ITERATE_CAP,
    EndomorphismSpec,
    companion_oracle,
    fixed_point_table,
    fixed_points_exact,
)
from endoscope.numfield import NumberField, rationals_field
from endoscope.qpoly import ONE, QPoly, X, from_ints
from endoscope.quaternion import QuatAlgebra, QuatElement

from .oracles import eigenvalue_counts, quaternion_product


def field_spec(coeffs, element, g):
    field = NumberField(from_ints(*coeffs))
    return EndomorphismSpec(field, field.element(element), g)


def test_minus_identity_counts():
    for g in range(1, 6):
        spec = EndomorphismSpec(rationals_field(), -1, g)
        assert fixed_points_exact(spec, 1) == 2 ** (2 * g)
        assert fixed_points_exact(spec, 2) == 0


def test_gaussian_period_four():
    spec = field_spec((1, 0, 1), [0, 1], 1)
    assert [fixed_points_exact(spec, n) for n in range(1, 5)] == [2, 4, 2, 0]
    assert eigenvalue_counts(spec, range(1, 5)) == [2, 4, 2, 0]


def test_golden_ratio_count():
    spec = field_spec((-5, 0, 1), [Fraction(1, 2), Fraction(1, 2)], 2)
    assert fixed_points_exact(spec, 1) == 1
    assert eigenvalue_counts(spec, [1]) == [1]


def test_silver_ratio_multiset():
    spec = field_spec((-2, 0, 1), [1, 1], 2)
    ev = rational_eigenvalues(spec)
    assert (ev.poly, ev.mult, ev.order) == (from_ints(-1, -2, 1), 2, None)
    assert ev.poly**ev.mult == from_ints(-1, -2, 1) ** 2
    assert fixed_points_exact(spec, 1) == 4


def test_quaternion_multiset_and_counts():
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    f = algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    spec = EndomorphismSpec(algebra, f, 4)
    ev = rational_eigenvalues(spec)
    assert (ev.poly, ev.mult) == (from_ints(1, -1, -1, -1, 1), 2)
    assert ev.mult * ev.poly.degree == 8
    exact = [fixed_points_exact(spec, n) for n in range(1, 6)]
    assert exact[0] == 1  # automorphism: a single honest fixed point
    assert exact == eigenvalue_counts(spec, range(1, 6))


def test_conjugation_closure():
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    f = algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    for spec in (
        field_spec((1, 1, 1, 1, 1), [0, 1], 2),
        EndomorphismSpec(algebra, f, 4),
    ):
        ev = rational_eigenvalues(spec)
        entries = {(e.re, e.im, e.radius, s) for e, s in ev.statuses}
        mirrored = {(re, -im, rad, s) for re, im, rad, s in entries}
        assert entries == mirrored


def test_companion_oracle_examples():
    assert companion_oracle(from_ints(-2, 1), 1) == 1
    assert companion_oracle(from_ints(-1, -1, 1), 1) == 1
    assert companion_oracle(from_ints(1, 1), 1) == 4
    # (-1)^deg convention accepted
    assert companion_oracle(from_ints(2, -1), 1) == 1
    with pytest.raises(ValidationError):
        companion_oracle(QPoly((Fraction(1, 2), Fraction(1))), 1)
    with pytest.raises(ValidationError):
        companion_oracle(from_ints(1, 2), 1)


def test_companion_matches_eigenvalue_product():
    # the doubled companion model of p has the roots of p^2 as its eigenvalues
    rng = random.Random(7)
    for _ in range(50):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
        p = QPoly([Fraction(c) for c in coeffs])
        if p[0] == 0:
            continue
        n = rng.randint(1, 5)
        assert [companion_oracle(p, n)] == eigenvalue_counts(p * p, [n])


def test_companion_oracle_matches_the_doubled_model():
    # the oracle's det(I - C^n)^2 against sympy's det(I - M^n) on the
    # block-doubled companion M = C (x) I_2, built here from p alone
    sympy = pytest.importorskip("sympy")
    rng = random.Random(28)
    for _ in range(40):
        deg, lead = rng.randint(1, 6), rng.choice((1, -1))
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [lead]
        n = rng.randint(1, 40)
        monic = [lead * c for c in coeffs]
        doubled = sympy.zeros(2 * deg, 2 * deg)
        for i in range(deg):
            for t in (0, 1):
                if i:
                    doubled[2 * i + t, 2 * (i - 1) + t] = 1
                doubled[2 * i + t, 2 * (deg - 1) + t] = -monic[i]
        expected = abs((sympy.eye(2 * deg) - doubled**n).det(method="bareiss"))
        assert companion_oracle(from_ints(*coeffs), n) == expected, (coeffs, n)


def test_companion_matches_norm_path():
    # when f generates the field, the companion model on minpoly(f) computes
    # N(1 - f^n)^2, so fix = companion^(g/deg)
    spec = field_spec((-2, 0, 1), [1, 1], 4)
    minpoly = spec.element.minimal_polynomial()
    for n in range(1, 6):
        fix = fixed_points_exact(spec, n)
        assert fix == companion_oracle(minpoly, n) ** (spec.g // minpoly.degree)


def test_growth_rate_converges():
    # fix(f^n)^(1/n) -> prod |mu|>1 within 1% by n = 40
    for coeffs, element, g, expect in (
        ((-5, 0, 1), [Fraction(1, 2), Fraction(1, 2)], 2, ((1 + math.sqrt(5)) / 2) ** 2),
        ((-2, 0, 1), [1, 1], 2, (1 + math.sqrt(2)) ** 2),
    ):
        spec = field_spec(coeffs, element, g)
        fix = fixed_points_exact(spec, 40)
        rate = fix ** (1 / 40)
        assert abs(rate - expect) / expect < 0.01


def test_dual_path_on_sextic_cm():
    zeta7 = NumberField(from_ints(1, 1, 1, 1, 1, 1, 1))
    spec = EndomorphismSpec(zeta7, zeta7.element([1, 1]), 3)
    assert [fixed_points_exact(spec, n) for n in range(1, 7)] == eigenvalue_counts(spec, range(1, 7))


def test_iterate_validation():
    spec = EndomorphismSpec(rationals_field(), 2, 1)
    for bad in (0, -5, True, ITERATE_CAP + 1):
        with pytest.raises(ValidationError):
            fixed_points_exact(spec, bad)
        with pytest.raises(ValidationError):
            fixed_point_table(spec, bad)
        with pytest.raises(ValidationError):
            companion_oracle(from_ints(-2, 1), bad)


def test_divisibility_and_integrality_guards():
    with pytest.raises(DivisibilityViolation):
        fixed_points_exact(field_spec((-2, 0, 1), [1, 1], 3), 1)
    with pytest.raises(NonIntegralElement):
        fixed_points_exact(field_spec((-2, 0, 1), [Fraction(1, 2)], 2), 1)
    with pytest.raises(ValidationError):
        EndomorphismSpec(rationals_field(), 0, 1)
    with pytest.raises(ValidationError):
        EndomorphismSpec(rationals_field(), 2, True)


@given(st.integers(min_value=-6, max_value=6).filter(lambda m: m != 0), st.integers(min_value=1, max_value=4))
def test_rational_multiplication_counts(m, n):
    # fix(m^n) on an elliptic curve is |1 - m^n|^2, degree of multiplication-by-m style
    spec = EndomorphismSpec(rationals_field(), m, 1)
    assert fixed_points_exact(spec, n) == (1 - m**n) ** 2


def sqrt13_salem_spec():
    base = NumberField(from_ints(-13, 0, 1))
    algebra = QuatAlgebra(base, [-2, -2], [2])
    return EndomorphismSpec(algebra, algebra.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4)), 4)


def table_specs():
    hamilton = QuatAlgebra(rationals_field(), [-1], [-1])
    half = Fraction(1, 2)
    definite = QuatAlgebra(NumberField(from_ints(-13, 0, 1)), [-1], [-4, 1])
    return [
        field_spec((-2, 0, 1), [1, 1], 2),  # 1+sqrt2: exponential
        field_spec((1, 1, 1, 1, 1), [0, 1], 2),  # zeta5: periodic, zero rows
        field_spec((1, 0, 1), [1, 1], 1),  # 1+i on an elliptic curve
        sqrt13_salem_spec(),
        EndomorphismSpec(hamilton, hamilton.element(half, half, half, half), 2),  # order-6 unit
        EndomorphismSpec(definite, definite.element(1, 1), 4),
        field_spec((-5, 0, 1), [half, half], 2),  # golden unit: coordinates with den 2
        field_spec((-1, -3, 0, 1), [1, 1], 3),  # 1+theta on the cyclic cubic
        cubic_hamilton_spec(),  # the largest norm-path matrix, 12 x 12
        *rational_minpoly_specs(),  # a monic minimal polynomial that is not integral
        indefinite_sqrt13_spec(),  # c, d != 0: the j and k columns of the norm path's matrix
    ]


def cubic_hamilton_spec():
    # (1+x) + x i + j in (-1, -1) over x^3 + x^2 - 2x - 1, totally definite
    algebra = QuatAlgebra(NumberField(from_ints(-1, -2, 1, 1)), [-1], [-1])
    return EndomorphismSpec(algebra, algebra.element([1, 1], [0, 1], 1), 6)


def indefinite_sqrt13_spec():
    # 1 + i + j + k in the totally indefinite (-2-2*sqrt13, 2) over Q(sqrt13)
    algebra = QuatAlgebra(NumberField(from_ints(-13, 0, 1)), [-2, -2], [2])
    return EndomorphismSpec(algebra, algebra.element(1, 1, 1, 1), 4)


def rational_minpoly_specs():
    # Q(sqrt2) presented as Q[x]/(x^2 - 1/2), x = 1/sqrt2, whose minimal
    # polynomial is monic but not integral: 1 + 2x = 1 + sqrt2, and
    # (1 + 2x) + 2x i + j in (-1, -1) over it, totally definite
    field = NumberField(QPoly([Fraction(-1, 2), 0, 1]))
    algebra = QuatAlgebra(field, [-1], [-1])
    return [
        EndomorphismSpec(field, field.element([1, 2]), 2),
        EndomorphismSpec(algebra, algebra.element([1, 2], [0, 2], 1), 4),
    ]


def test_cubic_hamilton_table():
    spec = cubic_hamilton_spec()
    assert spec.charpoly_q() == from_ints(56, -56, 56, -20, 10, -4, 1)
    assert fixed_point_table(spec, 2) == [1849, 76195441]


def test_indefinite_sqrt13_table():
    spec = indefinite_sqrt13_spec()
    assert spec.charpoly_q() == from_ints(-43, 12, -2, -4, 1)
    assert fixed_point_table(spec, 6) == [
        1296,
        3504384,
        11088090000,
        12071677722624,
        20875590423983376,
        37408455346523040000,
    ]


def test_rational_minpoly_tables():
    sqrt2, definite = rational_minpoly_specs()
    assert not sqrt2.algebra.minpoly.is_integral
    assert sqrt2.charpoly_q() == from_ints(-1, -2, 1)
    assert fixed_point_table(sqrt2, 6) == [4, 16, 196, 1024, 6724, 38416]
    assert definite.charpoly_q() == from_ints(28, -8, 8, -4, 1)
    assert fixed_point_table(definite, 4) == [625, 1500625, 324900625, 313404030625]


@pytest.mark.parametrize("index", range(len(table_specs())))
def test_table_matches_single_n_paths_and_companion(index):
    spec = table_specs()[index]
    nmax = 30
    table = fixed_point_table(spec, nmax)
    assert table == [fixed_points_exact(spec, n) for n in range(1, nmax + 1)]
    assert table == eigenvalue_counts(spec, range(1, nmax + 1))
    # the doubled companion model of charpoly_q computes prod (1 - mu^n)^2
    # over the roots of charpoly_q, so fix^2 = oracle^(2g/(de))
    cp = spec.charpoly_q()
    for n, fix in enumerate(table, 1):
        assert fix**2 == companion_oracle(cp, n) ** spec.exponent(), n


@pytest.mark.parametrize("index", range(len(table_specs())))
def test_table_matches_companion_at_high_n(index):
    # the benchmark's largest nmax is 200
    spec = table_specs()[index]
    table = fixed_point_table(spec, 200)
    cp = spec.charpoly_q()
    for n in (97, 150, 200):
        assert table[n - 1] ** 2 == companion_oracle(cp, n) ** spec.exponent(), n


def test_table_raises_when_paths_disagree(monkeypatch, tmp_path, capsys):
    honest = lefschetz._resultant_counts

    def off_by_one(chi, exponent, nmax):
        for n, fix in enumerate(honest(chi, exponent, nmax), 1):
            yield fix + 1 if n == 3 else fix

    monkeypatch.setattr(lefschetz, "_resultant_counts", off_by_one)
    spec = field_spec((-2, 0, 1), [1, 1], 2)
    with pytest.raises(CrossCheckError, match="n=3"):
        fixed_point_table(spec, 5)

    sqrt2 = {"kind": "field", "minpoly": ["-2", "0", "1"]}
    job = {
        "spec": {"algebra": sqrt2, "element": {"coords": ["1", "1"]}, "g": 2},
        "commands": [{"op": "fixpoints", "nmax": 5}],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main(["run", str(path)])
    assert code != 0
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "internal-cross-check"
    assert "n=3" in error["detail"]


@pytest.mark.parametrize("index", range(len(table_specs())))
def test_right_multiplication_matrix_against_the_product(index):
    # (M / D) coords(x) = coords(x f) for random x, with x f by field
    # arithmetic; for a quaternion, M / D steps a random state (A, B, P) to
    # (A', B', P') with A' + B' f = (A + B f) f and P' = Nrd(f) P, and R / D_R
    # reads P - Trd(A + B f), all by the textbook product on field elements
    spec = table_specs()[index]
    matrix, den, read, read_den = lefschetz._right_multiplication(spec)
    field = spec.algebra if spec.is_field_case else spec.algebra.base
    e, rng = field.degree, random.Random(index)

    def draw():
        return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(e)])

    def apply(rows, d, parts):
        vector = [p.poly[k] for p in parts for k in range(e)]
        image = [sum(c * v for c, v in zip(row, vector)) / d for row in rows]
        return [field.element(image[b : b + e]) for b in range(0, len(image), e)]

    for _ in range(8):
        if spec.is_field_case:
            x = draw()
            assert apply(matrix, den, [x]) == [x * spec.element]
            continue
        algebra, f = spec.algebra, spec.element
        a, b, p = draw(), draw(), draw()
        x = algebra.element(a) + quaternion_product(algebra.element(b), f)
        a2, b2, p2 = apply(matrix, den, [a, b, p])
        assert algebra.element(a2) + quaternion_product(algebra.element(b2), f) == quaternion_product(x, f)
        nrd = quaternion_product(f, f.conjugate())
        assert nrd == algebra.element(nrd.a) and p2 == nrd.a * p
        assert apply(read, read_den, [a, b, p]) == [p - (x.a + x.a)]


def test_table_paths_share_no_input():
    # a wrong charpoly reaches only the resultant path, through its power
    # sums: the norm path still reads fix(f) = 1 off the element, while
    # Res(chi, 1 - x)^2 = chi(1)^2 = 9
    spec = sqrt13_salem_spec()
    spec._charpoly_q = from_ints(1, -3, 1, -3, 1)
    with pytest.raises(CrossCheckError, match="n=1: 1 vs 9"):
        fixed_point_table(spec, 5)


@pytest.mark.parametrize(
    "make_spec, fault",
    [
        # ij = ji = k: the k coordinate's c1*b2 enters with its sign flipped
        (cubic_hamilton_spec, lambda x, y: x.algebra.element(0, 0, 0, 2 * (x.c * y.b))),
        # i^2 = -alpha: the sqrt13 element a + b i lies in the commutative
        # subfield F(i), where ij = ji changes no product, so break i^2 instead
        (sqrt13_salem_spec, lambda x, y: x.algebra.element(-2 * (x.algebra.alpha * (x.b * y.b)))),
        # ij = ji again, on an element with j and k parts over a real quadratic base
        (indefinite_sqrt13_spec, lambda x, y: x.algebra.element(0, 0, 0, 2 * (x.c * y.b))),
    ],
)
def test_faulty_product_reaches_only_the_norm_path(monkeypatch, make_spec, fault):
    # the counterpart of test_table_paths_share_no_input: the product builds
    # the norm path's matrix, but chi never calls it
    spec = make_spec()
    chi, table = spec.charpoly_q(), fixed_point_table(spec, 5)
    honest = QuatElement.__mul__

    def faulty_mul(x, y):
        y = x._coerce(y)
        return honest(x, y) + fault(x, y)

    monkeypatch.setattr(QuatElement, "__mul__", faulty_mul)
    faulty = make_spec()
    assert faulty.charpoly_q() == chi
    assert list(lefschetz._resultant_counts(chi, faulty.exponent(), 5)) == table
    with pytest.raises(CrossCheckError, match="paths disagree|norm of an integral element|not central"):
        fixed_point_table(faulty, 5)


def _break_every_copy(monkeypatch, home, name, fault):
    # the kernel home.<name> is replaced wherever an endoscope module bound it
    honest = getattr(home, name)

    def faulty(*args):
        return fault(honest(*args))

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "endoscope" and getattr(module, name, None) is honest:
            monkeypatch.setattr(module, name, faulty)


# a fault in each exact kernel, the path that must not see it, and the
# length of a table that reaches the kernel
KERNEL_FAULTS = {
    "det_int_bareiss": (qpoly, lambda d: d + 1, "resultant", 5),
    "newton_coefficients": (qpoly, lambda c: [c[0] + 1] + c[1:], "norm", 5),
    # twice the reduced norm, which only chi reads: the sqrt13 quaternion's
    # Nrd(f) = 1 reads as 2, and its chi stays integral
    "reduced_norm_int": (quaternion, lambda rt: ([2 * c for c in rt[0]], rt[1]), "norm", 5),
    # the recurrence of the resultant path's rows past 2^m, which it takes at
    # 40 rows for m = 2 and 4
    "_recurrence_polynomial": (lefschetz, lambda q: [q[0] + 1] + q[1:], "norm", 40),
    # the recurrence of the norm path's rows past 2^(m+1) - 1, which it takes
    # at 80 rows for m = 2 and 4
    "berlekamp_massey": (qpoly, lambda c: [c[0], c[1] + 1, *c[2:]], "resultant", 80),
}


@pytest.mark.parametrize(
    "index, kernel",  # 0 is 1+sqrt2, 3 the sqrt13 quaternion
    [(0, "det_int_bareiss"), (0, "newton_coefficients"), (0, "_recurrence_polynomial"), (0, "berlekamp_massey")]
    + [(3, kernel) for kernel in sorted(KERNEL_FAULTS)],
)
def test_table_paths_share_no_exact_kernel(monkeypatch, kernel, index):
    # determinants and Berlekamp-Massey serve only the norms; Newton's
    # identities, the resultant rows' recurrence and reduced norms only chi and
    # its power sums: a faulty kernel leaves the other path's rows as they were
    spec = table_specs()[index]
    lefschetz.admissibility_check(spec)  # builds and caches chi and the Albert type
    chi, exponent = spec.charpoly_q(), spec.exponent()
    home, fault, honest_path, nmax = KERNEL_FAULTS[kernel]
    calls = _rule_calls(lambda: fixed_point_table(spec, nmax))
    table = fixed_point_table(spec, nmax)
    _break_every_copy(monkeypatch, home, kernel, fault)
    if kernel == "reduced_norm_int":  # chi reads it when it is built, so build the spec again
        spec = table_specs()[index]
    if honest_path == "norm":
        assert list(lefschetz._norm_counts(spec, nmax)) == table
    else:
        assert list(lefschetz._resultant_counts(chi, exponent, nmax)) == table
    if kernel in ("_recurrence_polynomial", "berlekamp_massey"):
        # the table takes the recurrence, past the rows it is set up from
        norm = kernel == "berlekamp_massey"
        first = 2 ** (chi.degree + 1) - 1 if norm else 2**chi.degree
        assert [args[1] for args in calls if lefschetz._recurrence_pays(*args)].count(first) == 1
        rows = lefschetz._norm_counts(spec, first) if norm else lefschetz._resultant_counts(chi, exponent, first)
        assert list(rows) == table[:first]
    with pytest.raises(CrossCheckError, match="paths disagree|norm of an integral element"):
        fixed_point_table(spec, nmax)


def _monic(rng, degree, bound=3):
    return QPoly([rng.randint(-bound, bound) for _ in range(degree)] + [1])


def _chi_samples():
    # (chi, nmax)
    rng = random.Random(14)
    phi = {3: from_ints(1, 1, 1), 4: from_ints(1, 0, 1), 5: from_ints(1, 1, 1, 1, 1), 12: from_ints(1, 0, -1, 0, 1)}
    samples = [_monic(rng, degree) for degree in range(1, 17)]
    samples += [_monic(rng, degree) ** 2 for degree in (1, 2, 4, 8)]  # the quaternion shape
    samples += [phi[5] * _monic(rng, 3), phi[3] * phi[4] * phi[12] * _monic(rng, 4), phi[12] ** 2]
    samples.append(from_ints(-(10**6), 1) * _monic(rng, 3))  # one large root
    samples = [(chi, _past_the_recurrence(chi)) for chi in samples] + [(_monic(rng, 64, 2), 8)]
    # zero rows on the recurrence that are not a period
    mixed = [from_ints(-2, 1) * phi[3], phi[4] * from_ints(-1, 1, 1)]
    return samples + [(chi, _past_the_recurrence(chi)) for chi in mixed]


def _rule_calls(run):
    """The arguments of each call of lefschetz._recurrence_pays while run() runs."""
    calls, honest = [], lefschetz._recurrence_pays
    lefschetz._recurrence_pays = lambda *args: calls.append(args) or honest(*args)
    try:
        run()
    finally:
        lefschetz._recurrence_pays = honest
    return calls


def _past_the_recurrence(chi):
    """30, or the first nmax from 30 on whose rows past 2^m the resultant path
    reads off the recurrence: the rule's inputs at row 2^m do not depend on nmax."""
    order = 1 << chi.degree
    if order >= 199:
        return 30
    calls = _rule_calls(lambda: list(islice(lefschetz._resultant_counts(chi, 1, 199), order + 1)))
    rule = lefschetz._recurrence_pays
    return next((nmax for nmax in range(30, 200) if calls and rule(*calls[0][:2], nmax, *calls[0][3:])), 30)


@pytest.mark.parametrize("index", range(len(_chi_samples())))
def test_resultant_counts_match_independent_oracles(index):
    chi, nmax = _chi_samples()[index]
    for n, fix in enumerate(lefschetz._resultant_counts(chi, 1, nmax), 1):
        assert fix**2 == companion_oracle(chi, n), n
        assert fix == abs(qpoly.resultant(chi, ONE - X**n)), n


def _random_chi(m):
    """An irreducible monic integer polynomial of degree m, coefficients in
    [-3, 3] drawn by random.Random(3900 + m), and a nonzero constant term."""
    rng = random.Random(3900 + m)
    while True:
        chi = _monic(rng, m)
        if chi.num[0] and factorq.is_irreducible(chi):
            return chi


def _grid_verdicts(path, m):
    """The rule's verdicts on one path for x in Q[x]/(_random_chi(m)), at
    nmax one past the rows its recurrence is set up from, twice those rows,
    and 2000: the rule's inputs at its row do not depend on nmax."""
    chi = _random_chi(m)
    if path == "norm":
        field = NumberField(chi)
        first, rows = 2 ** (m + 1) - 1, lefschetz._norm_counts(EndomorphismSpec(field, field.element([0, 1]), m), 10**4)
    else:
        first, rows = 2**m, lefschetz._resultant_counts(chi, 1, 10**4)
    (args,) = _rule_calls(lambda: list(islice(rows, first + 1)))
    assert args[1] == first
    return [lefschetz._recurrence_pays(args[0], first, nmax, *args[3:]) for nmax in (first + 1, 2 * first, 2000)]


def test_the_recurrence_is_taken_by_a_rule_on_the_bits_of_its_products():
    # never before a row past those it is set up from, whatever the costs
    assert not lefschetz._recurrence_pays(4, 7, 7, 10, lambda coef: 0, lambda scale: 10**9)
    # the random chi of degree m: one row never pays for a setup; from m = 6
    # on a count of products would never take either recurrence, but weighed
    # by their bits it pays on both paths at 2000 rows up to m = 8, and not
    # for m = 9 and 10, whose resultant recurrence has 2^m coefficients of
    # about a third of the bits of row 2^m
    resultant = {m: _grid_verdicts("resultant", m) for m in range(2, 11)}
    assert resultant == {
        **{m: [False, True, True] for m in (2, 3, 4, 5, 8)},
        6: [False, False, True],
        7: [False, False, True],
        9: [False, False, False],
        10: [False, False, False],
    }
    norm = {m: _grid_verdicts("norm", m) for m in range(2, 9)}
    assert norm == {**{m: [False, True, True] for m in (3, 4, 5, 8)}, **{m: [False, False, True] for m in (2, 6, 7)}}


def test_resultant_counts_keep_no_power_sums_past_the_newton_rows():
    # a root at 1000 gives s_k about 10 k bits: reading every row by Newton's
    # identities keeps the power sums to s_(m nmax), about 44 MiB at this
    # nmax, while the rows, which the path keeps for a period, take about 3 MB
    chi = from_ints(-1000, 1) * from_ints(2, -1, 3, 1)
    tracemalloc.start()
    try:
        for _ in lefschetz._resultant_counts(chi, 1, 2000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def hurwitz_spec():
    hamilton = QuatAlgebra(rationals_field(), [-1], [-1])
    half = Fraction(1, 2)
    return EndomorphismSpec(hamilton, hamilton.element(half, half, half, half), 2)


# a spec of finite order k, and k: zeta5 in Q(zeta5), the Hurwitz unit (1+i+j+k)/2
PERIODIC_SPECS = {
    "zeta5": (lambda: field_spec((1, 1, 1, 1, 1), [0, 1], 2), 5),
    "hurwitz": (hurwitz_spec, 6),
}


def _spy(monkeypatch, name):
    """The calls of lefschetz.<name>, the binding the table paths use."""
    calls, honest = [], getattr(lefschetz, name)
    monkeypatch.setattr(lefschetz, name, lambda *args: calls.append(args) or honest(*args))
    return calls


@pytest.mark.parametrize("name", sorted(PERIODIC_SPECS))
def test_periodic_table_costs_one_period_on_each_path(monkeypatch, name):
    make, k = PERIODIC_SPECS[name]
    spec, nmax = make(), 10**4
    norms, newton = _spy(monkeypatch, "resultant_int"), _spy(monkeypatch, "newton_coefficients")
    extensions, repeats = _spy(monkeypatch, "extend_power_sums"), _spy(monkeypatch, "_repeat")
    table = fixed_point_table(spec, nmax)
    # row k is 0 and read off the period on each path, which has computed
    # rows 1..k-1: the norm path by k - 1 norms, the resultant path by
    # Newton's identities up to row 2^m and by the recurrence after it, set
    # up by one more Newton call of degree 2^m (zeta5: m = 4, k = 5 <= 16;
    # the Hurwitz unit: m = 2, k = 6 > 4, so row 5 is on the recurrence)
    m = spec.charpoly_q().degree
    assert len(norms) == k - 1 and [args[0] for args in repeats] == [table[:k]] * 2
    assert [args[1] for args in newton] == [m] * min(k - 1, 2**m) + [2**m] * (k - 1 > 2**m)
    # the power sums are extended in doubling blocks up to s_mk, which row k
    # reads, and not towards s_(m nmax): fewer than 2 m k of them, in blocks
    sums = extensions[-1][1]
    assert m * k <= len(sums) - 1 < 2 * m * k
    assert len(extensions) <= k.bit_length()
    assert 0 not in table[: k - 1] and table[k - 1] == 0
    assert table == (table[:k] * (nmax // k + 1))[:nmax]
    assert table[: 3 * k] == [fixed_points_exact(spec, n) for n in range(1, 3 * k + 1)]
    assert classify_growth(spec).period == k


@pytest.mark.parametrize("a, k", [(-1, 2), (1, 1)])
def test_a_central_element_proves_its_period_on_the_norm_path(monkeypatch, a, k):
    # f = a in F: the norm path steps (A, B, P) to (a A, 0, N P), so f^k = 1
    # brings back the state of 1, and the path stops stepping at row k <= 2
    algebra = QuatAlgebra(NumberField(from_ints(-13, 0, 1)), [-2, -2], [2])
    spec = EndomorphismSpec(algebra, algebra.element(a), 4)
    honest = fixed_point_table(spec, 30)
    norms, repeats = _spy(monkeypatch, "resultant_int"), _spy(monkeypatch, "_repeat")
    assert list(lefschetz._norm_counts(spec, 30)) == honest
    assert len(norms) == k - 1 and len(repeats) == 1
    expected = [256 * (n % 2) * (a == -1) for n in range(1, 31)]  # |N(Nrd(2))|^2 = 16^2 at odd n for f = -1
    assert honest == [fixed_points_exact(spec, n) for n in range(1, 31)] == expected


@pytest.mark.parametrize("index", [i for i in range(len(table_specs())) if i not in (1, 4)])
def test_exponential_table_never_takes_the_period_shortcut(monkeypatch, index):
    spec = table_specs()[index]  # all but zeta5 and the order-6 unit
    assert classify_growth(spec).period is None
    norms, newton = _spy(monkeypatch, "resultant_int"), _spy(monkeypatch, "newton_coefficients")
    repeats, extensions = _spy(monkeypatch, "_repeat"), _spy(monkeypatch, "extend_power_sums")
    fixed_point_table(spec, 40)
    m = spec.charpoly_q().degree
    # the norm path reads every row by a norm, or rows 1..2^(m+1) - 1 and the
    # rest off their recurrence: m = 2 and 3 take it at nmax 40, m = 4 and 6
    # do not
    assert len(norms) == {2: 7, 3: 15}.get(m, 40) and not repeats
    # Newton's identities read every row, or rows 1..2^m and set up the
    # recurrence of the rest: m = 2, 3 and 4 take it at nmax 40, m = 6 does
    # not, and a zero row, the only one that could start a period proof there,
    # never comes
    last = {2: 4, 3: 8, 4: 16}.get(m, 40)
    assert [args[1] for args in newton] == [m] * last + [2**m] * (last < 40)
    # the m last + 1 power sums the Newton rows read, in doubling blocks: one
    # call per block, none past them toward s_(m nmax)
    assert len(extensions[-1][1]) == m * last + 1 and len(extensions) == (last - 1).bit_length()


def _signed_norms(spec, count):
    """N(1 - f^n) for n = 0..count, by the single-n arithmetic of fixed_points_exact."""
    one, power, signed = spec.algebra.one(), spec.algebra.one(), [0]
    for _ in range(count):
        power = power * spec.element
        x = one - power
        value = (x if spec.is_field_case else x.reduced_norm()).norm_q()
        assert value.denominator == 1
        signed.append(value.numerator)
    return signed


@pytest.mark.parametrize("index", range(len(table_specs())))
def test_the_norm_recurrence_divides_the_resultant_recurrence(index):
    # N(1 - f^n) is a sum over the subsets S of the m roots of chi of
    # (-1)^|S| times the n-th power of their product: Berlekamp-Massey on
    # a_0..a_(2^(m+1)-1) returns prod(1 - b x) over the products b whose
    # terms survive, so its reverse divides Q, whose roots are all 2^m of them
    spec = table_specs()[index]
    chi = spec.charpoly_q()
    order = 2**chi.degree
    c = qpoly.berlekamp_massey(_signed_norms(spec, 2 * order - 1))
    q = lefschetz._recurrence_polynomial([qpoly.resultant(chi, ONE + X**j) for j in range(1, order + 1)])
    assert c[0] == 1 and len(c) - 1 <= order
    assert (QPoly([*q, 1]) % QPoly(c[::-1])).is_zero


@pytest.mark.parametrize("index, nmax", [(0, 40), (3, 80)])  # 1+sqrt2 (m = 2), the sqrt13 quaternion (m = 4)
@pytest.mark.parametrize(
    "fault",
    [
        lambda c: [c[0], c[1] + 1, *c[2:]],  # a wrong coefficient
        lambda c: [2 * c[0], *c[1:]],  # c_0 = 2: a row that does not divide, or a wrong one
        lambda c: c + [0] * 16,  # L past 2^m
    ],
    ids=["coefficient", "lead", "order"],
)
def test_a_faulty_norm_recurrence_is_caught_at_its_first_row(monkeypatch, fault, index, nmax):
    # the norm path's rows 1..2^(m+1) - 1 are read by norms, and the first row
    # off a faulty recurrence raises CrossCheckError or disagrees
    spec = table_specs()[index]
    chi, exponent = spec.charpoly_q(), spec.exponent()
    first = 2 ** (chi.degree + 1) - 1
    honest = lefschetz.berlekamp_massey
    monkeypatch.setattr(lefschetz, "berlekamp_massey", lambda seq: fault(honest(seq)))
    rows = []
    with pytest.raises(CrossCheckError):
        for exact, via in zip(lefschetz._norm_counts(spec, nmax), lefschetz._resultant_counts(chi, exponent, nmax)):
            if exact != via:
                raise CrossCheckError(f"paths disagree at n={len(rows) + 1}")
            rows.append(exact)
    assert len(rows) == first


@pytest.mark.parametrize("path", ["_norm_counts", "_resultant_counts"])
@pytest.mark.parametrize("name", sorted(PERIODIC_SPECS))
def test_a_period_declared_one_step_early_is_a_disagreement(monkeypatch, name, path):
    # the path computes rows 1..k-2 honestly, then claims f^(k-1) = 1 and
    # repeats them with period k - 1; the other path proves k on its own
    make, k = PERIODIC_SPECS[name]
    honest = getattr(lefschetz, path)

    def early(*args):
        rows = list(honest(*args[:-1], k - 2))
        yield from rows
        yield from lefschetz._repeat(rows, args[-1])

    monkeypatch.setattr(lefschetz, path, early)
    with pytest.raises(CrossCheckError, match=f"n={k - 1}:"):
        fixed_point_table(make(), 10**4)


_SQRT13 = NumberField(from_ints(-13, 0, 1))
# (algebra, g): two totally real fields, four CM fields, two totally definite
# and one totally indefinite quaternion algebra
ALBERT_POOL = [
    (NumberField(from_ints(-2, 0, 1)), 2),
    (NumberField(from_ints(-1, -3, 0, 1)), 3),
    (NumberField(from_ints(1, 0, 1)), 1),
    (NumberField(from_ints(3, 0, 1)), 1),
    (NumberField(from_ints(1, 1, 1, 1, 1)), 2),
    (NumberField(from_ints(1, 0, 0, 0, 1)), 2),
    (QuatAlgebra(rationals_field(), [-1], [-1]), 2),
    (QuatAlgebra(_SQRT13, [-1], [-4, 1]), 4),
    (QuatAlgebra(_SQRT13, [-2, -2], [2]), 4),
]


@st.composite
def albert_specs(draw):
    """An admissible spec: small coordinates over a denominator of 1 or 2."""
    algebra, g = draw(st.sampled_from(ALBERT_POOL))
    field, parts = (algebra, 1) if isinstance(algebra, NumberField) else (algebra.base, 4)
    den = draw(st.sampled_from([1, 1, 2]))
    coords = [[Fraction(draw(st.integers(-2, 2)), den) for _ in range(field.degree)] for _ in range(parts)]
    try:
        element = field.element(coords[0]) if parts == 1 else algebra.element(*coords)
        spec = EndomorphismSpec(algebra, element, g)
        lefschetz.admissibility_check(spec)
    except EndoscopeError:
        assume(False)
    return spec


@given(albert_specs())
@example(PERIODIC_SPECS["zeta5"][0]())
@example(hurwitz_spec())
@example(field_spec((1, 0, 1), [0, 1], 1))
@example(sqrt13_salem_spec())
def test_tables_satisfy_dold_congruences_and_their_period(spec):
    # fix(f^n) = det(1 - f^n) on H^1, a Lefschetz number, so
    # sum over d | n of mu(n/d) fix(f^d) = 0 mod n (Dold 1983), here by the
    # divisor sieve b_n = a_n - sum of b_d over d | n, d < n; and a spec of
    # period k has fix(f^n) = fix(f^gcd(n, k)).  Only the printed rows are read.
    nmax = 40
    table = fixed_point_table(spec, nmax)
    sieve = [0] + table
    for n in range(1, nmax + 1):
        assert sieve[n] % n == 0, n
        for multiple in range(2 * n, nmax + 1, n):
            sieve[multiple] -= sieve[n]
    k = classify_growth(spec).period
    if k is not None:
        assert table == [table[math.gcd(n, k) - 1] for n in range(1, nmax + 1)]


@settings(max_examples=40, deadline=None)
@given(albert_specs())
@example(sqrt13_salem_spec())
def test_norm_rows_off_the_recurrence_are_the_exact_counts(spec):
    # with the rule taking the norm path's recurrence wherever a row lies
    # past it, rows 2^(m+1)..2^(m+1) + 5 come off it, or off the period that
    # the path proves before, and each is the single-n count
    first = 2 ** (spec.charpoly_q().degree + 1) - 1
    takes = patch.object(lefschetz, "_recurrence_pays", lambda order, first, nmax, *costs: nmax > first)
    bm = patch.object(lefschetz, "berlekamp_massey", wraps=lefschetz.berlekamp_massey)
    repeat = patch.object(lefschetz, "_repeat", wraps=lefschetz._repeat)
    with takes, bm as bm_calls, repeat as repeat_calls:
        rows = list(lefschetz._norm_counts(spec, first + 6))
    assert bm_calls.call_count + repeat_calls.call_count == 1
    assert rows == [fixed_points_exact(spec, n) for n in range(1, first + 7)]


def _growth_ratio_and_bounds(spec, n, value):
    """fix(f^n) / gamma^n with gamma = exp(value), and the bounds the 2g
    eigenvalues mu_i put on it: for each mu_i off the circle and
    r_i = min(|mu_i|, 1/|mu_i|), |1 - mu_i^n| / max(1, |mu_i|)^n lies in
    [1 - r_i^n, 1 + r_i^n], and for each mu_i on it in [0, 2].  The moduli
    come from mpmath on the squarefree part q of chi, each root counted
    2g / deg q times: polyroots does not converge on a repeated root, as in
    chi = (x - 2)^4."""
    q = spec.charpoly_q().squarefree_part()
    with mp.workdps(60):
        roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(q.coeffs)],
                             maxsteps=4000, extraprec=400)
        moduli = [abs(mu) for mu in roots] * (2 * spec.g // q.degree)
        on_circle = sum(abs(m - 1) < mp.mpf(10) ** -20 for m in moduli)
        r = [min(m, 1 / m) ** n for m in moduli if abs(m - 1) >= mp.mpf(10) ** -20]
        ratio = mp.mpf(fixed_point_table(spec, n)[-1]) / mp.exp(n * mp.mpf(str(value)))
        lower = mp.fprod(1 - x for x in r) if not on_circle else mp.zero
        upper = 2**on_circle * mp.fprod(1 + x for x in r)
        slack = mp.mpf(10) ** -20
        return ratio, lower * (1 - slack), upper * (1 + slack), on_circle


@given(albert_specs(), st.integers(20, 60))
@example(sqrt13_salem_spec(), 60)
@example(hurwitz_spec(), 20)
@example(field_spec((-2, 0, 1), [1, 1], 2), 40)
@example(field_spec((1, 0, 1), [1, 1], 1), 33)
def test_tables_grow_at_the_printed_entropy(spec, n):
    # log fix(f^n) / n tends to log gamma, the printed entropy (Lind, Schmidt
    # and Ward 1990): fix(f^n) / gamma^n lies between prod(1 - r_i^n) and
    # prod(1 + r_i^n) for ExponentialPure, and below 2^c prod(1 + r_i^n) for
    # ExponentialMixed with c eigenvalues on the circle
    growth = classify_growth(spec).growth_class
    assume(growth != "Periodic")
    ratio, lower, upper, on_circle = _growth_ratio_and_bounds(spec, n, entropy(spec).value)
    assert (growth == "ExponentialMixed") == (on_circle > 0)
    assert lower <= ratio <= upper


@pytest.mark.parametrize("make", [sqrt13_salem_spec, lambda: field_spec((-2, 0, 1), [1, 1], 2)])
def test_a_wrong_norm_exponent_breaks_the_growth_bounds(monkeypatch, make):
    # an exponent doubled in the table path alone squares every row, which
    # the two table paths cannot see, as both raise the norm to it
    spec = make()
    value, exponent = entropy(spec).value, EndomorphismSpec.exponent
    monkeypatch.setattr(EndomorphismSpec, "exponent", lambda self: 2 * exponent(self))
    ratio, lower, upper, _ = _growth_ratio_and_bounds(spec, 30, value)
    assert not lower <= ratio <= upper


def _nstr18_or_tie(v):
    """mpmath's nstr(v, 18, strip_zeros=False), or None for a v within 10^-60
    of a rounding tie, where 80 digits cannot tell which way it rounds."""
    if v:
        step = mp.mpf(10) ** (mp.floor(mp.log10(abs(v))) - 17)
        if abs(abs(v) / step % 1 - mp.mpf(1) / 2) * step < mp.mpf(10) ** -60:
            return None
    return mp.nstr(v, 18, strip_zeros=False)


def _roots_80(q):
    """The roots of the QPoly q by mpmath polyroots at 80 digits."""
    return mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(q.coeffs)], maxsteps=4000, extraprec=600)


@given(albert_specs())
@settings(max_examples=100)
@example(sqrt13_salem_spec())
@example(hurwitz_spec())
@example(field_spec((-2, 0, 1), [1, 1], 2))
def test_printed_entropy_and_salem_root_match_an_mpmath_oracle(spec):
    # value_decimal is exponent * mult * sum of log|a| over the roots a of q
    # outside the circle, q the squarefree part of chi and mult = deg chi /
    # deg q; the oracle takes them from mpmath at 80 digits and prints them
    # as nstr(v, 18, strip_zeros=False); a Salem gamma's lead_root likewise.
    # Values within 10^-60 of a rounding tie are skipped (_nstr18_or_tie).
    report = entropy(spec)
    chi = spec.charpoly_q()
    q = chi.squarefree_part()
    with mp.workdps(80):
        logs = [mp.log(abs(a)) for a in _roots_80(q) if abs(a) > 1 + mp.mpf(10) ** -40]
        expected = _nstr18_or_tie(spec.exponent() * (chi.degree // q.degree) * mp.fsum(logs))
    assume(expected is not None)
    assert jobs.entropy_json(report)["value_decimal"] == expected
    if report.is_salem:
        gamma = report.gamma_minpoly
        with mp.workdps(80):
            lead = _nstr18_or_tie(max(mp.re(a) for a in _roots_80(gamma) if abs(mp.im(a)) < mp.mpf(10) ** -40))
        assume(lead is not None)
        assert jobs.salem_json(is_salem_polynomial(gamma), gamma)["lead_root"] == lead
