import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal, Inexact, localcontext
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from endoscope import cli, jobs
from endoscope.cli import main
from endoscope.jobs import KNOWN_OPS
from endoscope.lefschetz import DIMENSION_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_job(tmp_path, payload):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return str(path)


MINUS_ONE_JOB = {
    "spec": {
        "algebra": {"kind": "field", "minpoly": ["1/1", "0/1", "1/1"]},
        "element": {"coords": ["-1/1"]},
        "g": 2,
    },
    "commands": [{"op": "fixpoints", "nmax": 4}],
    "precision_bits": 128,
}


def test_fixpoints_job(tmp_path, capsys):
    code, out = run_cli(capsys, "run", write_job(tmp_path, MINUS_ONE_JOB))
    assert code == 0
    report = json.loads(out)
    fixes = [row["fix"] for row in report["results"][0]["fix"]]
    assert fixes == ["16", "0", "16", "0"]


def test_entropy_job_published_automorphism(tmp_path, capsys):
    job = {
        "spec": {
            "algebra": {
                "kind": "quaternion",
                "base_minpoly": ["-13/1", "0/1", "1/1"],
                "alpha": ["-2/1", "-2/1"],
                "beta": ["2/1"],
            },
            "element": {"a": ["1/4", "-1/4"], "b": ["1/4"], "c": [], "d": []},
            "g": 4,
        },
        "commands": [{"op": "classify"}],
    }
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 0
    report = json.loads(out)
    result = report["results"][0]
    assert result["albert_type"]["kind"] == "TotallyIndefiniteQuaternion"
    assert result["growth"]["class"] == "ExponentialMixed"
    ent = result["entropy"]
    assert ent["is_salem"] is True
    assert ent["value_decimal"].startswith("1.08707014")
    assert ent["gamma_minpoly"] == ["1/1", "-3/1", "1/1", "-3/1", "1/1"]


def test_salem_inside_job(tmp_path, capsys):
    job = {
        "commands": [{"op": "salem", "poly": ["1/1", "-1/1", "-1/1", "-1/1", "1/1"]}],
    }
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["is_salem"] is True


def test_salem_command(capsys):
    code, out = run_cli(capsys, "salem", "1,-1,-1,-1,1")
    assert code == 0
    report = json.loads(out)
    assert report["is_salem"] is True
    assert report["lead_root"].startswith("1.7220838057")


def test_salem_rejects_garbage(capsys):
    code, out = run_cli(capsys, "salem", "1,oops")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


@pytest.mark.parametrize("text, field", [("1,,-1,-1,-1,1", "field 2 of 6"), (",1,-1,-1,-1,1", "field 1 of 6"),
                                         ("1,-1,-1,-1,1,", "field 6 of 6"), ("1, ,-1,-1,-1,1", "field 2 of 6")])
def test_salem_rejects_an_empty_field(capsys, text, field):
    # six fields are not five coefficients: an empty one exits 2 and is named
    code, out = run_cli(capsys, "salem", text)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation" and field in err["detail"]


@pytest.mark.parametrize("text", ["1,-1,-1,-1,1", "1, -1, -1, -1, 1", "1 -1 -1 -1 1", "[1, -1, -1, -1, 1]"])
def test_salem_reads_commas_spaces_and_json(capsys, text):
    code, out = run_cli(capsys, "salem", text)
    assert code == 0
    assert json.loads(out)["poly"] == ["1/1", "-1/1", "-1/1", "-1/1", "1/1"]


def test_salem_rejects_exponent_notation(capsys):
    # "1e999999" is 9 characters but would parse to a 3.3-million-bit integer
    code, out = run_cli(capsys, "salem", "1e999999,1")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "'1e999999'" in err["detail"]


def test_salem_rejects_zero_denominator(capsys):
    code, out = run_cli(capsys, "salem", "1/0,1")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "'1/0'" in err["detail"] and "zero denominator" in err["detail"]


def test_zero_denominator_rejected_at_field(tmp_path, capsys):
    job = dict(MINUS_ONE_JOB, spec=dict(MINUS_ONE_JOB["spec"], element={"coords": ["1/00"]}))
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "'1/00'" in err["detail"] and "zero denominator" in err["detail"]
    assert "spec.element.coords" in err["detail"]


def test_certified_decimal_refines_a_wide_enclosure():
    from fractions import Fraction

    from endoscope.algnum import AlgebraicNumber
    from endoscope.enclosures import ComplexEnclosure
    from endoscope.jobs import _certified_decimal
    from endoscope.qpoly import from_ints

    wide = AlgebraicNumber(from_ints(-2, 0, 1), ComplexEnclosure(Fraction(3, 2), 0, Fraction(1, 4)), 64)
    assert _certified_decimal(wide) == "1.41421356237309505"


def _exact_decimal(v) -> Decimal:
    """The mpf v as a Decimal of the same value (a binary fraction has a finite decimal expansion)."""
    sign, man, exp, _ = v._mpf_
    with localcontext() as ctx:
        ctx.prec, ctx.traps[Inexact] = 1000, True
        return Decimal(-man if sign else man) * Decimal(2) ** exp


def _nstr18_matches_mpmath(v) -> str:
    with mp.workprec(400):
        expected = mp.nstr(v, 18, strip_zeros=False)
    assert jobs._nstr18(_exact_decimal(v)) == expected
    return expected


@pytest.mark.parametrize(
    "text, printed",
    [
        ("0", "0.0"),
        ("2.5", "2.50000000000000000"),
        ("-2.5", "-2.50000000000000000"),
        ("9.999999999999999999999", "10.0000000000000000"),
        ("-0.99999999999999999999", "-1.00000000000000000"),
        ("99999999999999999.96", "100000000000000000."),
        ("123456789012345678.5", "123456789012345679."),
        ("12345678901234567.25", "12345678901234567.3"),
        ("999999999999999999.5", "1.00000000000000000e+18"),
        ("1e20", "1.00000000000000000e+20"),
        ("0.00001", "0.0000100000000000000000"),
        ("0.0000099999999999999999999", "0.0000100000000000000000"),
        ("0.00000099999999999999999999", "1.00000000000000000e-6"),
        ("-1.5e-12", "-1.50000000000000000e-12"),
        ("1234567890123456789e6", "1.23456789012345679e+24"),
    ],
)
def test_nstr18_prints_the_bytes_of_mpmath_nstr(text, printed):
    with mp.workprec(400):
        v = mp.mpf(text)
    assert _nstr18_matches_mpmath(v) == printed


@settings(max_examples=300, deadline=None)
@given(st.integers(-12, 24), st.integers(1, 2**80), st.booleans())
def test_nstr18_matches_mpmath_nstr_on_random_binary_values(lead, mantissa, negative):
    # m * 2^b with the leading digit near 10^lead; its exact Decimal is printed
    b = round((lead + 0.5) * 3.321928094887362) - mantissa.bit_length()
    with mp.workprec(400):
        v = mp.ldexp(-mantissa if negative else mantissa, b)
    _nstr18_matches_mpmath(v)


@pytest.mark.parametrize(
    "a, lead_root",
    [
        (10**20, "1.00000000000000000e+20"),
        (123456789012345678, "123456789012345678."),
        (12345678901234567, "12345678901234567.0"),
    ],
)
def test_salem_lead_roots_in_each_print_format(capsys, a, lead_root):
    code, out = run_cli(capsys, "salem", f"1,-{a},3,-{a},1")
    assert code == 0
    report = json.loads(out)
    assert report["is_salem"] is True and report["lead_root"] == lead_root


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(2, 10**12)),
        st.integers(1, 10**6).flatmap(lambda a: st.tuples(st.just(a), st.integers(-2 * a - 1, 2 * a - 3))),
    )
)
def test_certified_log_is_the_correctly_rounded_log(case):
    """_certified_decimal(x, log=True) prints mpmath's 18 digits of log(x) at
    1000 bits, for x = sqrt(a) or the lead root of x^4 - a x^3 + b x^2 - a x + 1.
    That quartic is a Salem polynomial when t^2 - a t + b - 2, the polynomial
    of x + 1/x, is irreducible with one root in (-2, 2) and one above 2, as
    -2a - 2 < b < 2a - 2 makes it."""
    from endoscope.algnum import AlgebraicNumber
    from endoscope.enclosures import isolate_roots
    from endoscope.jobs import _certified_decimal
    from endoscope.qpoly import from_ints

    with mp.workprec(1000):
        if len(case) == 1:
            (a,) = case
            assume(math.isqrt(a) ** 2 != a)
            p, x = from_ints(-a, 0, 1), mp.sqrt(a)
        else:
            a, b = case
            disc = a * a - 4 * (b - 2)
            assume(math.isqrt(disc) ** 2 != disc)
            t = (a + mp.sqrt(disc)) / 2
            p, x = from_ints(1, -a, b, -a, 1), (t + mp.sqrt(t * t - 4)) / 2
        expected = mp.nstr(mp.log(x), 18, strip_zeros=False)
    lead = [e for e in isolate_roots(p) if e.is_real][-1]
    assert _certified_decimal(AlgebraicNumber(p, lead), log=True) == expected


def test_certified_log_of_one_prints_zero():
    from fractions import Fraction

    from endoscope.algnum import AlgebraicNumber
    from endoscope.enclosures import ComplexEnclosure
    from endoscope.jobs import _certified_decimal
    from endoscope.qpoly import ONE, X

    for radius in (0, Fraction(1, 8)):
        one = AlgebraicNumber(X - ONE, ComplexEnclosure(Fraction(1), 0, radius))
        assert _certified_decimal(one, log=True) == "0.0"


def test_certified_decimal_past_the_cap_names_a_huge_number():
    # the message prints the enclosure of a number past 10^308: exit 3, not 4
    from fractions import Fraction

    from endoscope.algnum import AlgebraicNumber
    from endoscope.enclosures import MAX_BITS, ComplexEnclosure
    from endoscope.errors import PrecisionExhausted
    from endoscope.jobs import _certified_decimal
    from endoscope.qpoly import X, from_ints

    huge = AlgebraicNumber(X - from_ints(10**400), ComplexEnclosure(Fraction(10**400), 0, 0), MAX_BITS + 1)
    with pytest.raises(PrecisionExhausted, match=r"1\.00000000000e\+400\+0j, r=0"):
        _certified_decimal(huge)


def test_exponent_notation_rejected_at_field(tmp_path, capsys):
    algebra = {"kind": "field", "minpoly": ["1e999999", "1/1"]}
    job = dict(MINUS_ONE_JOB, spec=dict(MINUS_ONE_JOB["spec"], algebra=algebra))
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "spec.algebra.minpoly" in err["detail"]


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"spec": ')
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "line" in err["detail"]


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(spec, cmd):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(jobs, "run_command", broken)
    code, out = run_cli(capsys, "run", write_job(tmp_path, MINUS_ONE_JOB))
    assert code == 4
    assert json.loads(out) == {"error": {"kind": "internal-error", "detail": "ZeroDivisionError: division by zero"}}


def test_deeply_nested_job_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5)
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_salem_rejects_deep_nesting(capsys):
    code, out = run_cli(capsys, "salem", "[" * 10**5)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_validation_error_points_at_field(tmp_path, capsys):
    job = {
        "spec": {
            "algebra": {"kind": "field", "minpoly": ["1/1", "0/1", "1/1"]},
            "element": {"coords": ["nonsense"]},
            "g": 2,
        },
        "commands": ["classify"],
    }
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    assert "spec.element.coords" in json.loads(out)["error"]["detail"]


@pytest.mark.parametrize("coord", [True, 1.5])
def test_bare_integer_coefficients_read_as_strings_do(tmp_path, capsys, coord):
    # the README's promise: [1, 0, 1] reads as ["1/1", "0/1", "1/1"], and
    # true or a float exits 2 with a pointer to its array
    def job(minpoly, coords):
        spec = {"algebra": {"kind": "field", "minpoly": minpoly}, "element": {"coords": coords}, "g": 1}
        return write_job(tmp_path, {"spec": spec, "commands": ["classify", {"op": "fixpoints", "nmax": 4}]})

    strings = run_cli(capsys, "run", job(["1/1", "0/1", "1/1"], ["1/1", "1/1"]))
    assert strings[0] == 0 and run_cli(capsys, "run", job([1, 0, 1], [1, 1])) == strings
    code, out = run_cli(capsys, "run", job([1, 0, 1], [1, coord]))
    assert code == 2 and "spec.element.coords" in json.loads(out)["error"]["detail"]


def test_missing_spec_detected(tmp_path, capsys):
    code, out = run_cli(capsys, "run", write_job(tmp_path, {"commands": ["classify"]}))
    assert code == 2
    assert "spec" in json.loads(out)["error"]["detail"]


def test_unknown_op_detected(tmp_path, capsys):
    job = dict(MINUS_ONE_JOB, commands=[{"op": "explode"}])
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2


def test_inadmissible_spec_reports_kind(tmp_path, capsys):
    job = {
        "spec": {
            "algebra": {"kind": "field", "minpoly": ["-2/1", "0/1", "1/1"]},
            "element": {"coords": ["1/1", "1/1"]},
            "g": 3,
        },
        "commands": ["classify"],
    }
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "divisibility"


@pytest.mark.parametrize(
    "a, b, charpoly, fix",
    [
        ("0/1", "1/1", ["-1/1", "0/1", "1/1"], ["0", "0", "0", "0"]),
        ("3/1", "1/1", ["8/1", "-6/1", "1/1"], ["9", "2025", "194481", "14630625"]),
        ("1/1", "2/1", ["-3/1", "-2/1", "1/1"], ["16", "0", "2704", "0"]),
    ],
)
def test_two_eigenvalue_factors_reject_only_the_classifiers(tmp_path, capsys, a, b, charpoly, fix):
    # f = a + b i in M_2(Q) = (1, 1 / Q), g = 2: chi has two distinct factors
    split = {"kind": "quaternion", "base_minpoly": ["0/1", "1/1"], "alpha": ["1/1"], "beta": ["1/1"]}
    spec = {"algebra": split, "element": {"a": [a], "b": [b]}, "g": 2}
    code, out = run_cli(capsys, "run", write_job(tmp_path, {"spec": spec, "commands": ["classify"]}))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "not-simple-albert-type"
    job = {"spec": spec, "commands": ["check-algebra", {"op": "fixpoints", "nmax": 4}]}
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    check, table = json.loads(out)["results"]
    assert code == 0 and check["charpoly_q"] == charpoly
    assert [row["fix"] for row in table["fix"]] == fix


def _one_plus_zeta_job(p):
    # f = 1 + zeta_p in the CM field Q(zeta_p), g = p - 1
    spec = {"algebra": {"kind": "field", "minpoly": ["1/1"] * p}, "element": {"coords": ["1/1", "1/1"]}, "g": p - 1}
    return {"spec": spec, "commands": ["entropy"]}


@pytest.mark.parametrize(
    "p, detail",
    [(19, "degree 84 exceeds cap 64"), (23, "degree 330 exceeds cap 64"), (29, "degree 2002 exceeds cap 64")],
)
def test_entropy_checks_the_degree_cap_before_the_exterior_power(tmp_path, capsys, p, detail):
    # gamma is a root of an exterior power of minpoly(f*conj(f)), of degree
    # C((p - 1) / 2, k'); at p = 29 that power would take minutes to build
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "run", write_job(tmp_path, _one_plus_zeta_job(p)))
    assert code == 2 and json.loads(out)["error"] == {"kind": "degree-cap", "detail": detail}
    assert time.perf_counter() - t0 < 20


@pytest.mark.parametrize(
    "p, value, degree",
    [(11, "5.76758548295436251", 5), (13, "7.06503165753600178", 6), (17, "9.62997397527336048", 8)],
)
def test_entropy_of_one_plus_zeta_answers_through_the_structure_element(tmp_path, capsys, p, value, degree):
    # each of the p - 1 eigenvalues 1 + zeta^j has multiplicity 2g/(p - 1) = 2,
    # so the entropy is the sum of 2 log|1 + zeta^j| over |1 + zeta^j| > 1
    code, out = run_cli(capsys, "run", write_job(tmp_path, _one_plus_zeta_job(p)))
    entropy = json.loads(out)["results"][0]["entropy"]
    assert code == 0 and entropy["structure_ok"] is True
    assert entropy["value_decimal"] == value and len(entropy["gamma_minpoly"]) == degree + 1
    with mp.workprec(100):
        terms = [abs(1 + mp.expjpi(mp.mpf(2 * j) / p)) for j in range(1, p)]
        expected = mp.fsum(2 * mp.log(t) for t in terms if t > 1)
        assert abs(expected - mp.mpf(value)) < mp.mpf(10) ** -16


def test_structure_certificate_power_past_the_cap_still_answers(tmp_path, capsys):
    # f = 1 + 2cos(2 pi / 17), g = 8: y = f^2 has degree 8 with 4 conjugates
    # above 1, so gamma's exterior power has degree C(8, 4) = 70, above the
    # cap, and is folded to degree 35
    minpoly = ["1/1", "-4/1", "-10/1", "10/1", "15/1", "-6/1", "-7/1", "1/1", "1/1"]
    spec = {"algebra": {"kind": "field", "minpoly": minpoly}, "element": {"coords": ["1/1", "1/1"]}, "g": 8}
    code, out = run_cli(capsys, "run", write_job(tmp_path, {"spec": spec, "commands": ["entropy"]}))
    entropy = json.loads(out)["results"][0]["entropy"]
    assert code == 0 and entropy["structure_ok"] is True
    assert entropy["value_decimal"] == "5.53343508135009325"


def test_byte_identical_reruns(tmp_path, capsys):
    path = write_job(tmp_path, MINUS_ONE_JOB)
    _, first = run_cli(capsys, "run", path)
    _, second = run_cli(capsys, "run", path)
    assert first == second


def test_nmax_override(tmp_path, capsys):
    code, out = run_cli(capsys, "run", write_job(tmp_path, MINUS_ONE_JOB), "--nmax", "2")
    assert code == 0
    assert len(json.loads(out)["results"][0]["fix"]) == 2


@pytest.mark.parametrize("nmax", ["0", "-5", "1000001"])
def test_nmax_override_rejected(tmp_path, capsys, nmax):
    code, out = run_cli(capsys, "run", write_job(tmp_path, MINUS_ONE_JOB), "--nmax", nmax)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "--nmax" in err["detail"]


@pytest.mark.parametrize("nmax", [0, -5, True, 10**6 + 1, "8"])
def test_job_nmax_rejected(tmp_path, capsys, nmax):
    job = dict(MINUS_ONE_JOB, commands=["classify", {"op": "fixpoints", "nmax": nmax}])
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    assert "commands[1].nmax" in json.loads(out)["error"]["detail"]


def test_boolean_dimension_rejected(tmp_path, capsys):
    job = dict(MINUS_ONE_JOB, spec=dict(MINUS_ONE_JOB["spec"], g=True))
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    assert "spec.g" in json.loads(out)["error"]["detail"]


def _sqrt2_fixpoints_job(g):
    field = {"kind": "field", "minpoly": ["-2/1", "0/1", "1/1"]}
    return {"spec": {"algebra": field, "element": {"coords": ["1/1", "1/1"]}, "g": g}, "commands": [{"op": "fixpoints", "nmax": 2}]}


def test_dimension_above_cap_rejected(tmp_path, capsys):
    # under 200 bytes, but its two counts in full would run to about 1.8 MB
    job = _sqrt2_fixpoints_job(2 * 10**6)
    assert len(json.dumps(job)) < 200
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    assert "spec.g" in json.loads(out)["error"]["detail"]
    assert len(out) < 1000


def test_dimension_at_cap_accepted(tmp_path, capsys):
    code, out = run_cli(capsys, "run", write_job(tmp_path, _sqrt2_fixpoints_job(DIMENSION_CAP)))
    assert code == 0
    # fix(f) = |N(1 - (1 + sqrt2))|^(2g/2) = 2^g
    assert json.loads(out)["results"][0]["fix"][0]["fix"] == str(2**DIMENSION_CAP)


def test_table_mode(tmp_path, capsys):
    code, out = run_cli(capsys, "run", write_job(tmp_path, MINUS_ONE_JOB), "--table")
    assert code == 0
    assert "fix(f^1) = 16" in out


def test_precision_validation(tmp_path, capsys):
    code, out = run_cli(capsys, "run", write_job(tmp_path, MINUS_ONE_JOB), "--precision", "16")
    assert code == 2


def test_self_test_command_passes(capsys):
    code, out = run_cli(capsys, "paper-examples", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["rows"]) == 3
    notes = [row["note"] for row in report["rows"] if row["note"]]
    assert any("x^4-7x^3-x^2-7x+1" in note for note in notes)


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one call, a SystemExit from argparse included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_in_one_process(tmp_path, capsys):
    # the argument parser is built on the first call and kept: every later
    # call must print what the first one did
    job = write_job(tmp_path, MINUS_ONE_JOB)
    cases = [
        ["run", job],
        ["run", job, "--table", "--nmax", "3"],
        ["salem", "1,-1,-1,-1,1"],
        ["paper-examples", "--json"],
        ["--help"],
        ["run", "--help"],
        ["run", job, "--nmax", "three"],
        ["bogus"],
    ]
    first = [_call(capsys, argv) for argv in cases]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert first[4][1].startswith("usage: endoscope") and first[5][1].startswith("usage: endoscope run")
    assert "argument --nmax: invalid int value: 'three'" in first[6][2]
    assert "invalid choice: 'bogus'" in first[7][2]
    for _ in range(2):
        assert [_call(capsys, argv) for argv in cases] == first


# ---------------------------------------------------------------------------
# integers longer than Python's 4300-digit int-to-str limit


def test_fix_rows_print_integers_past_the_digit_limit(tmp_path, capsys):
    job = {
        "spec": {"algebra": {"kind": "field", "minpoly": ["0/1", "1/1"]}, "element": {"coords": ["100000/1"]}, "g": 1},
        "commands": [{"op": "fixpoints", "nmax": 500}],
    }
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 0
    rows = json.loads(out)["results"][0]["fix"]
    # (10^2500 - 1)^2 = 10^5000 - 2 * 10^2500 + 1
    assert rows[-1] == {"n": 500, "fix": "9" * 2499 + "8" + "0" * 2499 + "1"}


@pytest.mark.parametrize("sign", [1, -1])
def test_table_rows_print_under_the_least_digit_limit(sign):
    # int.__repr__ prints rows up to 2000 bits, 603 digits, below 640, the
    # least limit Python accepts; longer rows take the Decimal path.  The
    # bytes are those of the row dicts json.dumps writes
    rows = [sign * (2**2000 - 1), sign * (2**8192 + 1), sign * (10**100000 - 1)]
    digits = [str(Decimal(v)) for v in rows[:2]] + [("-" if sign < 0 else "") + "9" * 100000]
    report = {"precision_bits": 128, "results": [{"op": "fixpoints", "fix": jobs.FixRows(rows)}]}
    dict_rows = [{"n": n, "fix": d} for n, d in enumerate(digits, 1)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli._dumps(report) == json.dumps({**report, "results": [{"op": "fixpoints", "fix": dict_rows}]}, indent=2)
        assert cli._table(report).splitlines()[2:] == [f"   fix(f^{n}) = {d}" for n, d in enumerate(digits, 1)]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("count", [1, cli._ROW_BLOCK - 1, cli._ROW_BLOCK, cli._ROW_BLOCK + 1, 2 * cli._ROW_BLOCK + 3])
def test_table_rows_joined_in_blocks_are_the_bytes_json_dumps_writes(count):
    # the rows of a table are joined a block at a time: the separators
    # between blocks and the brackets around them are those of one join
    rows = [n * n - 7 for n in range(count)]
    report = {"results": [{"op": "fixpoints", "fix": jobs.FixRows(rows)}]}
    dict_rows = [{"n": n, "fix": str(v)} for n, v in enumerate(rows, 1)]
    assert cli._dumps(report) == json.dumps({"results": [{"op": "fixpoints", "fix": dict_rows}]}, indent=2)


def test_charpoly_prints_integers_past_the_digit_limit(tmp_path, capsys):
    job = {
        "spec": {
            "algebra": {"kind": "field", "minpoly": ["-2/1", "0/1", "1/1"]},
            "element": {"coords": ["1" + "0" * 2200 + "/1", "1/1"]},
            "g": 2,
        },
        "commands": ["check-algebra"],
    }
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 0
    # a = 10^2200 + sqrt2 has charpoly x^2 - 2*10^2200 x + 10^4400 - 2
    assert json.loads(out)["results"][0]["charpoly_q"] == ["9" * 4399 + "8/1", "-2" + "0" * 2200 + "/1", "1/1"]


def test_salem_accepts_coefficients_past_the_digit_limit(capsys):
    big = "1" + "0" * 4400
    code, out = run_cli(capsys, "salem", f"1,{big},1")
    assert code == 0
    report = json.loads(out)
    assert report["poly"] == ["1/1", f"{big}/1", "1/1"] and report["is_salem"] is False


def test_json_integer_past_the_digit_limit_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(MINUS_ONE_JOB).replace('"nmax": 4', '"nmax": 1' + "0" * 5000))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "validation"
    assert error["detail"].startswith("JSON integer 100000000000... has 5001 digits")
    assert "sys." not in error["detail"]


# ---------------------------------------------------------------------------
# constructor errors point at the field that caused them


def _algebra_job(algebra, commands=("check-algebra",)):
    element = {"coords": ["1/1"]} if algebra["kind"] == "field" else {"a": ["1/1"], "b": ["1/1"]}
    return {"spec": {"algebra": algebra, "element": element, "g": 4}, "commands": list(commands)}


QUAT = {"kind": "quaternion", "base_minpoly": ["-13/1", "0/1", "1/1"], "alpha": ["-2/1", "-2/1"], "beta": ["2/1"]}


@pytest.mark.parametrize(
    "job, pointer",
    [
        (_algebra_job({"kind": "field", "minpoly": ["-1/1", "0/1", "1/1"]}), "spec.algebra.minpoly"),  # reducible
        (_algebra_job({"kind": "field", "minpoly": ["1/1", "2/1"]}), "spec.algebra.minpoly"),  # not monic
        (_algebra_job(dict(QUAT, base_minpoly=["-4/1", "0/1", "1/1"])), "spec.algebra.base_minpoly"),  # reducible
        (_algebra_job(dict(QUAT, base_minpoly=["13/1", "0/1", "1/1"])), "spec.algebra.base_minpoly"),  # not totally real
        (_algebra_job(dict(QUAT, alpha=["-13/1", "0/1", "1/1"])), "spec.algebra.alpha"),  # zero in the base field
        (_algebra_job(dict(QUAT, beta=[])), "spec.algebra.beta"),
        (_algebra_job(QUAT, ["check-algebra", {"op": "salem", "poly": ["1/1", "x"]}]), "commands[1].poly"),
    ],
)
def test_constructor_errors_point_at_their_field(tmp_path, capsys, job, pointer):
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert err["detail"].endswith(f"(at {pointer})")


# ---------------------------------------------------------------------------
# fuzzing: every job file ends in a documented exit code and one JSON object

WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-2, 2), max_size=3),
    st.sampled_from(["", "x", "1e3", "1.5", "+1", " 2", "1/0"]),
)
COEFF = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 4)),
    st.integers(0, 20).map(lambda k: "1" + "0" * k),
)
LONG_COEFF = st.integers(0, 5000).map(lambda k: "1" + "0" * k)
# degree <= 4 for the field, and <= 2 for the quaternion base: charpolys of degree <= 4
FIELDS = [[0, 1], [-2, 0, 1], [1, 0, 1], [-1, -1, 1], [-1, -3, 0, 1], [1, 1, 1, 1, 1], [1, 0, -10, 0, 1]]
BASES = [[0, 1], [-2, 0, 1], [-5, 0, 1], [-13, 0, 1]]


def _coeffs(terms):
    return st.lists(COEFF, min_size=1, max_size=terms)


def _ints(pool):
    return st.one_of(st.sampled_from(pool), st.lists(st.integers(-4, 4), min_size=1, max_size=5)).map(
        lambda cs: [f"{c}/1" for c in cs]
    )


FIELD_SPEC = st.fixed_dictionaries(
    {
        "algebra": st.fixed_dictionaries({"kind": st.just("field"), "minpoly": _ints(FIELDS)}),
        "element": st.fixed_dictionaries({"coords": _coeffs(4)}),
        "g": st.integers(1, 4),
    }
)
QUATERNION_SPEC = st.fixed_dictionaries(
    {
        "algebra": st.fixed_dictionaries(
            {"kind": st.just("quaternion"), "base_minpoly": _ints(BASES), "alpha": _coeffs(2), "beta": _coeffs(2)}
        ),
        "element": st.fixed_dictionaries({k: _coeffs(2) for k in "abcd"}),
        "g": st.sampled_from([2, 4]),
    }
)
COMMAND = st.one_of(
    st.sampled_from(KNOWN_OPS + ("explode",)),
    st.fixed_dictionaries({"op": st.just("fixpoints"), "nmax": st.integers(1, 50)}),
    st.fixed_dictionaries({"op": st.just("salem"), "poly": _coeffs(5)}),
)
VALID_JOB = st.fixed_dictionaries(
    {"spec": st.one_of(FIELD_SPEC, QUATERNION_SPEC), "commands": st.lists(COMMAND, min_size=1, max_size=2)},
    optional={"precision_bits": st.integers(64, 2048)},
)
NMAX_EDGES = st.sampled_from([0, -1, 1, 50, 10**6 + 1, True, 2.5, "8", None])


def _paths(node, prefix=()):
    """Every path to a value inside a job, containers included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replace(job, path, value):
    if not path:
        return value
    parent = job
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return job


@st.composite
def fuzzed_jobs(draw):
    """A well-formed job with at most one change: a value of the wrong type
    anywhere, one coefficient string of up to about 5000 digits, or a
    fixpoints command with an edge value of nmax.

    The printed fixed-point counts have about nmax times as many digits as
    the coefficients, so a job with a long coefficient keeps nmax <= 2."""
    job = draw(VALID_JOB)
    mutation = draw(st.sampled_from(["none", "none", "wrong", "long", "nmax"]))
    paths = list(_paths(job))
    if mutation == "wrong":
        job = _replace(job, draw(st.sampled_from(paths)), draw(st.one_of(WRONG, COEFF)))
    elif mutation == "long":
        coefficients = [p for p in paths if len(p) > 1 and isinstance(p[-1], int) and p[-2] != "commands"]
        job = _replace(job, draw(st.sampled_from(coefficients)), draw(LONG_COEFF))
        for cmd in job["commands"]:
            if isinstance(cmd, dict) and "nmax" in cmd:
                cmd["nmax"] = min(cmd["nmax"], 2)
    elif mutation == "nmax":
        job["commands"].append({"op": "fixpoints", "nmax": draw(NMAX_EDGES)})
    return job


@given(fuzzed_jobs())
@settings(max_examples=60)
@example(  # fix(f^50) has 10^4 digits
    {
        "spec": {"algebra": {"kind": "field", "minpoly": ["0/1", "1/1"]}, "element": {"coords": ["1" + "0" * 100]}, "g": 1},
        "commands": [{"op": "fixpoints", "nmax": 50}],
    }
)
@example(  # a charpoly coefficient has 4401 digits
    {
        "spec": {
            "algebra": {"kind": "field", "minpoly": ["-2/1", "0/1", "1/1"]},
            "element": {"coords": ["1" + "0" * 2200, "1"]},
            "g": 2,
        },
        "commands": ["check-algebra"],
    }
)
def test_fuzzed_job_files_end_in_a_documented_exit(tmp_path_factory, job):
    path = tmp_path_factory.mktemp("fuzz") / "job.json"
    path.write_text(json.dumps(job))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path)])
    assert code in (0, 2, 3)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    if code:
        assert set(report) == {"error"} and {"kind", "detail"} <= set(report["error"])
    else:
        assert "results" in report


def test_quaternion_base_must_be_totally_real_at_its_field(tmp_path, capsys):
    # QuatAlgebra decides this once; the job parser points its error at the base
    job = _algebra_job(dict(QUAT, base_minpoly=["13/1", "0/1", "1/1"]))
    code, out = run_cli(capsys, "run", write_job(tmp_path, job))
    assert code == 2
    assert json.loads(out) == {
        "error": {
            "kind": "validation",
            "detail": "quaternion base field must be totally real (at spec.algebra.base_minpoly)",
        }
    }


# ---------------------------------------------------------------------------
# the report writer against the standard library's indented encoder

json_strings = st.text(st.characters(exclude_categories=()), max_size=12)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.floats(),
    json_strings,
    st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\/\b\f\n\r\t', "\ud800"]),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=25,
)


@given(json_values)
@example({"a": [], "b": {}, "c": [[], {}, [{}]], "d": -(10**50), "e": True, "f": None})
def test_dumps_matches_json_dumps_indented(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


report_strings = st.one_of(json_strings, st.sampled_from(["é \U0001f600", "√13", "ζ₈ ∈ ℚ(ζ₈)", ""]))
report_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    report_strings,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.builds(lambda sign, n: sign * n, st.sampled_from((1, -1)), st.integers(min_value=10**4999, max_value=10**5000 - 1)),
)
reports = st.recursive(
    report_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(report_strings, children, max_size=5),
        st.just([]),
        st.just({}),
    ),
    max_leaves=40,
)


@given(st.dictionaries(report_strings, reports, min_size=1, max_size=4))
@settings(max_examples=60)
def test_dumps_writes_scalars_inline_as_json_dumps_does(report):
    # reports nest lists and dicts of str and int values, which _dumps writes
    # inline, among bools, None, floats and empty containers; ints of 5000
    # digits need the int-to-str limit lifted, for json.dumps as for _dumps
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli._dumps(report) == json.dumps(report, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_reports_of_a_benchmark_stream_are_the_standard_encoding(tmp_path):
    # every job of the seed-0 fixpoints-sweep stream prints the bytes the
    # standard library's indented encoder writes for the same report, and
    # the stdout digest recorded for the stream
    from perfbench import workloads

    stream = workloads.write_stream(workloads.generate("fixpoints-sweep", 0), tmp_path)
    golden = json.loads((Path(workloads.__file__).parent / "golden" / "fixpoints-sweep.json").read_text())["jobs"]
    assert len(stream) == len(golden)
    for job, (want_code, want_sha) in zip(stream, golden):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", job["id"]
        assert (code, hashlib.sha256(text.encode("utf-8")).hexdigest()) == (want_code, want_sha), job["id"]


JOBS = Path(__file__).parent / "jobs"


@pytest.mark.parametrize("report, argv", [
    ("zeta7-shifted.json", ["zeta7-shifted.json"]),
    ("quartic-other.json", ["quartic-other.json"]),
    ("readme-2000.json", ["readme.json", "--nmax", "2000"]),
    ("readme-2000.txt", ["readme.json", "--nmax", "2000", "--table"]),
    ("zeta7-table.json", ["zeta7-table.json"]),
    ("sqrt2-table.json", ["sqrt2-table.json"]),
    ("cubic-table.json", ["cubic-table.json"]),
])
def test_recorded_reports_are_byte_identical(report, argv):
    # the digests in tests/jobs/reports.sha256, which CI also checks; the
    # 10^6-row Hurwitz report there is left to CI
    digests = dict(line.split()[::-1] for line in (JOBS / "reports.sha256").read_text().splitlines())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["run", str(JOBS / argv[0]), *argv[1:]])
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digests[report]


def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(tmp_path):
    # the README spec's table to nmax 2000 is about 1 MB, more than a pipe
    # holds: the reader takes one line and closes the pipe while the report
    # is still being written
    element = {"a": ["1/4", "-1/4"], "b": ["1/4"], "c": [], "d": []}
    job = write_job(tmp_path, {"spec": {"algebra": QUAT, "element": element, "g": 4}, "commands": ["fixpoints"]})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    argv = [sys.executable, "-m", "endoscope.cli", "run", job, "--nmax", "2000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, stderr) == (0, b"")
