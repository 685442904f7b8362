"""Command-line front end.

    endoscope run job.json [--precision N] [--table] [--nmax K]
    endoscope paper-examples [--json]
    endoscope salem "<coeffs>"

Exit codes: 0 success, 1 self-test failure, 2 validation error,
3 precision exhaustion, 4 internal error (any exception that is not an
EndoscopeError: a bug).  Each command returns its exit code and its whole
output, and main writes that once: if the reader has closed stdout (say
"| head -1"), the rest is dropped, with no traceback and the same exit
code.  Reports go to stdout as JSON unless --table,
written by _dumps: one recursive writer of the bytes that json.dumps
writes with indent=2, whose indented encoder is pure Python; it recurses only
into containers and other scalars, and writes str and int values inline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import classify, jobs
from .errors import EndoscopeError, PrecisionExhausted, ValidationError
from .lefschetz import EndomorphismSpec
from .numfield import NumberField
from .qpoly import QPoly, cyclotomic_order, exact_decimal, from_ints
from .quaternion import QuatAlgebra, definiteness


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="endoscope",
        description="Exact fixed-point counts, growth classes and entropy for "
        "endomorphisms of simple abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the commands of a JSON job file")
    run_p.add_argument("job", help="path to the job file")
    run_p.add_argument(
        "--precision", type=int, default=None, help="precision_bits echoed in the report (64..2048); answers are exact"
    )
    run_p.add_argument("--table", action="store_true", help="human-readable output instead of JSON")
    run_p.add_argument("--nmax", type=int, default=None, help="override nmax of fixpoints commands")

    pe_p = sub.add_parser(
        "paper-examples",
        help="re-run the three published indefinite-quaternion Salem constructions as a self-test",
    )
    pe_p.add_argument("--json", action="store_true", help="machine-readable output")

    sa_p = sub.add_parser("salem", help="Salem test for a polynomial, coefficients constant-first")
    sa_p.add_argument("coeffs", help='e.g. "1,-1,-1,-1,1" or a JSON array')
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            code, text = _cmd_run(args)
        elif args.command == "paper-examples":
            code, text = _cmd_self_test(args)
        else:
            code, text = _cmd_salem(args)
    except PrecisionExhausted as exc:
        code, text = 3, _error_report(exc.kind, str(exc))
    except EndoscopeError as exc:
        code, text = 2, _error_report(exc.kind, str(exc))
    except Exception as exc:  # a bug: still one JSON error, not a traceback
        code, text = 4, _error_report("internal-error", f"{type(exc).__name__}: {exc}")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # interpreter exit writes nothing to the pipe either
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


def _dumps(obj, newline: str = "\n") -> str:
    """The bytes of json.dumps with indent=2, for objects with str keys:
    strings are escaped to ASCII, ints printed by int.__repr__, empty
    containers as [] and {}, and any other scalar by json.dumps.  newline is
    a line break and the indent of the line obj ends on.  The str and int
    values of a container are written inline, with no call of their own, and
    the int rows of a fixpoints table (jobs.FixRows) from one row template."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(k)
            + ": "
            + (encode_basestring_ascii(v) if type(v) is str else int.__repr__(v) if type(v) is int else _dumps(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if type(obj) is jobs.FixRows:  # one template for every row
            row = "{" + inner + '  "n": %d,' + inner + '  "fix": "%s"' + inner + "}"
            items = [row % (n, exact_decimal(fix)) for n, fix in enumerate(obj, 1)]
        else:
            items = [
                encode_basestring_ascii(v) if type(v) is str else int.__repr__(v) if type(v) is int else _dumps(v, inner)
                for v in obj
            ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    return json.dumps(obj)


def _error_report(kind: str, detail: str) -> str:
    return _dumps({"error": {"kind": kind, "detail": detail}})


def _json_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than Python parses; coefficient strings take any length
        detail = f"JSON integer {digits[:12]}... has {len(digits.lstrip('-'))} digits"
        raise ValidationError(f"{detail}, more than any integer field takes") from None


def _cmd_run(args) -> tuple[int, str]:
    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ValidationError(f"cannot read job file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc} (at line {exc.lineno}, column {exc.colno})") from exc
    except RecursionError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc

    spec, commands, precision_bits = jobs.parse_job(data)
    precision = args.precision if args.precision is not None else (precision_bits or 128)
    if not 64 <= precision <= 2048:
        raise ValidationError("precision must lie in [64, 2048]")
    if args.nmax is not None:
        jobs.check_nmax(args.nmax, "--nmax")

    results = []
    for cmd in commands:
        if args.nmax is not None and cmd["op"] == "fixpoints":
            cmd = {"op": "fixpoints", "nmax": args.nmax}
        results.append(jobs.run_command(spec, cmd))
    report = {"precision_bits": precision, "results": results}
    return 0, _table(report) if args.table else _dumps(report)


def _table(report: dict) -> str:
    lines = [f"precision_bits: {report['precision_bits']}"]
    for res in report["results"]:
        lines.append(f"-- {res['op']}")
        for key, value in res.items():
            if key == "op":
                continue
            if type(value) is jobs.FixRows:
                lines += ["   fix(f^%d) = %s" % (n, exact_decimal(fix)) for n, fix in enumerate(value, 1)]
            else:
                lines.append(f"   {key}: {json.dumps(value)}")
    return "\n".join(lines)


def _cmd_salem(args) -> tuple[int, str]:
    text = args.coeffs.strip()
    try:
        if text.startswith("["):
            raw = json.loads(text, parse_int=_json_int)
        else:
            raw = [tok for tok in text.replace(",", " ").split() if tok]
        poly = QPoly(raw)
    except (ValidationError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot parse coefficients: {exc}") from exc
    report = classify.is_salem_polynomial(poly)
    return 0, _dumps({"op": "salem", **jobs.salem_json(report, poly)})


# ---------------------------------------------------------------------------
# the three published totally indefinite constructions, re-checked end to end


def _published_rows():
    rows = []
    for label, disc, alpha, a_num, quartic, note in (
        ("(2, -2-2*sqrt13 / Q(sqrt13))", 13, (-2, -2), 1, (1, -1, -1, -1, 1), None),
        (
            "(2, 94-14*sqrt61 / Q(sqrt61))",
            61,
            (94, -14),
            7,
            (1, -7, -1, -7, 1),
            "derived quartic: trace pair sums to 7 and the norm to 1, forcing "
            "x^4-7x^3-x^2-7x+1; a degree-1 middle term would break reciprocity",
        ),
        ("(2, 10-6*sqrt17 / Q(sqrt17))", 17, (10, -6), 3, (1, -3, 0, -3, 1), None),
    ):
        base = NumberField(from_ints(-disc, 0, 1))
        algebra = QuatAlgebra(base, list(alpha), [2])
        f = algebra.element(
            [Fraction(a_num, 4), Fraction(-1, 4)], Fraction(1, 4)
        )
        rows.append(
            {
                "label": label,
                "spec": EndomorphismSpec(algebra, f, 4),
                "expected_charpoly": from_ints(*quartic),
                "note": note,
            }
        )
    return rows


def _check_row(row) -> list[dict]:
    spec = row["spec"]
    checks = []

    def add(name, expected, computed):
        checks.append(
            {"check": name, "expected": expected, "computed": computed, "ok": expected == computed}
        )

    add("definiteness", "TotallyIndefinite", definiteness(spec.algebra).kind)
    add("reduced_norm", "1/1", _poly_str(spec.element.reduced_norm().poly) or "0")
    charpoly = spec.charpoly_q()
    add("charpoly_q", _poly_str(row["expected_charpoly"]), _poly_str(charpoly))
    add("root_of_unity_order", None, cyclotomic_order(charpoly))
    add("is_automorphism", True, classify.is_automorphism(spec))
    growth = classify.classify_growth(spec)
    add("growth_class", "ExponentialMixed", growth.growth_class)
    ent = classify.entropy(spec)
    add("gamma_is_salem", True, ent.is_salem)
    salem = classify.is_salem_polynomial(charpoly)
    with localcontext() as ctx:
        ctx.prec = 28
        expected_value = 2 * (Decimal(salem.lead_root.re_num) / salem.lead_root.den).ln()
        add("entropy_is_log_salem_sq", True, abs(ent.value - expected_value) < Decimal("1e-12"))
    return checks


def _poly_str(p: QPoly) -> str:
    return ",".join(p.to_json())


def _cmd_self_test(args) -> tuple[int, str]:
    rows = []
    for row in _published_rows():
        checks = _check_row(row)
        ok = all(c["ok"] for c in checks)
        rows.append({"algebra": row["label"], "ok": ok, "note": row["note"], "checks": checks})
    all_ok = all(row["ok"] for row in rows)
    code = 0 if all_ok else 1
    if args.json:
        return code, _dumps({"rows": rows, "ok": all_ok})
    lines = []
    for row in rows:
        lines.append(f"== {row['algebra']}  [{'PASS' if row['ok'] else 'FAIL'}]")
        if row["note"]:
            lines.append(f"   note: {row['note']}")
        for c in row["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            lines.append(f"   {mark} {c['check']}: expected {c['expected']!r}, computed {c['computed']!r}")
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return code, "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
