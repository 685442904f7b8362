import json

import pytest

from endoscope.cli import main


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
