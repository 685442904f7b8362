"""Job-file parsing and deterministic report construction.

A job is {"spec": ..., "commands": [...], "precision_bits": optional}, and
parse_job returns it as the plain tuple (spec, commands, precision_bits).  The
spec carries either {"kind": "field", "minpoly": [...]} or {"kind":
"quaternion", "base_minpoly": [...], "alpha": [...], "beta": [...]} plus the
element and the dimension g.  Polynomial coefficient arrays are strings
"num/den", constant term first.  Validation errors carry a JSON-pointer-ish
path to the offending field.  precision_bits is validated and echoed in the
report; no answer depends on it, as every decision is exact.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_UP, Context, Decimal, localcontext

from . import classify
from .algnum import AlgebraicNumber
from .enclosures import MAX_BITS
from .errors import PrecisionExhausted, ValidationError
from .lefschetz import DIMENSION_CAP, ITERATE_CAP, EndomorphismSpec, fixed_point_table
from .lefschetz import fixed_points_exact  # noqa: F401  re-export; perfbench/tests checks the tracer patches it
from .numfield import NumberField, cm_structure
from .qpoly import QPoly
from .quaternion import QuatAlgebra, definiteness

KNOWN_OPS = ("check-algebra", "classify", "fixpoints", "entropy", "salem")


def _fail(path: str, detail: str):
    raise ValidationError(f"{detail} (at {path})")


def _poly(data, path: str) -> QPoly:
    if not isinstance(data, list) or not data:
        _fail(path, "expected a non-empty array of coefficient strings")
    return _poly_or_zero(data, path)


def _at(path: str, make, *args):
    """make(*args), with a ValidationError it raises pointed at path."""
    try:
        return make(*args)
    except ValidationError as exc:
        _fail(path, str(exc))


def parse_spec(data, path: str = "spec") -> EndomorphismSpec:
    if not isinstance(data, dict):
        _fail(path, "spec must be an object")
    for key in ("algebra", "element", "g"):
        if key not in data:
            _fail(f"{path}.{key}", "missing required field")
    alg = data["algebra"]
    if not isinstance(alg, dict) or "kind" not in alg:
        _fail(f"{path}.algebra.kind", "algebra needs a 'kind' of 'field' or 'quaternion'")
    g = data["g"]
    if isinstance(g, bool) or not isinstance(g, int) or not 1 <= g <= DIMENSION_CAP:
        _fail(f"{path}.g", f"g must be an integer in [1, {DIMENSION_CAP}]")

    if alg["kind"] == "field":
        field = _at(f"{path}.algebra.minpoly", NumberField, _poly(alg.get("minpoly"), f"{path}.algebra.minpoly"))
        elt = data["element"]
        if not isinstance(elt, dict) or "coords" not in elt:
            _fail(f"{path}.element.coords", "field element needs a 'coords' array")
        coords = _poly_or_zero(elt["coords"], f"{path}.element.coords")
        return _at(path, EndomorphismSpec, field, field.element(coords), g)
    elif alg["kind"] == "quaternion":
        base_path = f"{path}.algebra.base_minpoly"
        base = _at(base_path, NumberField, _poly(alg.get("base_minpoly"), base_path))
        alpha, beta = (base.element(_poly_or_zero(alg.get(k), f"{path}.algebra.{k}")) for k in ("alpha", "beta"))
        for key, value in (("alpha", alpha), ("beta", beta)):
            if value.is_zero:
                _fail(f"{path}.algebra.{key}", f"{key} must be nonzero in the base field")
        algebra = _at(base_path, QuatAlgebra, base, alpha, beta)
        elt = data["element"]
        if not isinstance(elt, dict):
            _fail(f"{path}.element", "quaternion element needs arrays a, b, c, d")
        coords = [_poly_or_zero(elt.get(key, []), f"{path}.element.{key}") for key in "abcd"]
        return _at(path, EndomorphismSpec, algebra, algebra.element(*coords), g)
    else:
        _fail(f"{path}.algebra.kind", f"unknown algebra kind {alg['kind']!r}")


def _poly_or_zero(data, path: str) -> QPoly:
    if data is None:
        _fail(path, "missing coefficient array")
    if not isinstance(data, list):
        _fail(path, "expected an array of coefficient strings")
    if not data:
        return QPoly()
    try:
        return QPoly(data)
    except (ValidationError, ValueError) as exc:
        _fail(path, f"bad coefficient array: {exc}")


def check_nmax(nmax, path: str) -> int:
    """nmax itself if it is an integer in [1, ITERATE_CAP]; a ValidationError at path otherwise."""
    if isinstance(nmax, bool) or not isinstance(nmax, int) or not 1 <= nmax <= ITERATE_CAP:
        _fail(path, f"nmax must be an integer in [1, {ITERATE_CAP}]")
    return nmax


def parse_job(data) -> tuple[EndomorphismSpec | None, list[dict], int | None]:
    """(spec, commands, precision_bits), the commands normalized for
    run_command: spec is None when every command is salem, and so is
    precision_bits when the job gives none."""
    if not isinstance(data, dict):
        raise ValidationError("job must be a JSON object (at $)")
    commands = data.get("commands")
    if not isinstance(commands, list) or not commands:
        raise ValidationError("job needs a non-empty 'commands' array (at commands)")
    normalized = []
    needs_spec = False
    for k, cmd in enumerate(commands):
        if isinstance(cmd, str):
            cmd = {"op": cmd}
        if not isinstance(cmd, dict) or "op" not in cmd:
            _fail(f"commands[{k}]", "command must be a string or an object with 'op'")
        if cmd["op"] not in KNOWN_OPS:
            _fail(f"commands[{k}].op", f"unknown op {cmd['op']!r}; known: {', '.join(KNOWN_OPS)}")
        if cmd["op"] != "salem":
            needs_spec = True
        if cmd["op"] == "fixpoints":
            cmd = {"op": "fixpoints", "nmax": check_nmax(cmd.get("nmax", 10), f"commands[{k}].nmax")}
        if cmd["op"] == "salem":
            if "poly" not in cmd:
                _fail(f"commands[{k}].poly", "salem command needs a 'poly' array")
            cmd = {"op": "salem", "poly": _poly(cmd["poly"], f"commands[{k}].poly")}
        normalized.append(cmd)
    precision = data.get("precision_bits")
    if precision is not None and (not isinstance(precision, int) or not 64 <= precision <= 2048):
        raise ValidationError("precision_bits must be an integer in [64, 2048] (at precision_bits)")
    spec = None
    if needs_spec:
        if "spec" not in data:
            raise ValidationError("commands need a 'spec' object (at spec)")
        spec = parse_spec(data["spec"], "spec")
    return spec, normalized, precision


# ---------------------------------------------------------------------------
# report builders (all values exact strings or JSON scalars, or the int rows
# of a fixpoints table, so output is byte-identical run to run)


class FixRows(list):
    """The int rows fix(f^1), fix(f^2), ... of a fixpoints report; cli writes each from one template."""


def albert_json(at: classify.AlbertType) -> dict:
    return {"kind": at.kind, "d": at.d, "e": at.e}


def growth_json(rep: classify.GrowthReport) -> dict:
    return {
        "class": rep.growth_class,
        "period": rep.period,
        "unit_circle_roots_of_unity": rep.unit_circle_roots_of_unity,
        "witness": rep.witness,
    }


def _nstr18(v: Decimal) -> str:
    """v rounded half up to 18 significant digits, printed as mpmath's nstr(v, 18, strip_zeros=False) prints it."""
    if not v:
        return "0.0"
    r = Context(prec=18, rounding=ROUND_HALF_UP).plus(v)
    e = r.adjusted()
    if -6 < e < 18:
        return format(r, f".{17 - e}f") + ("." if e == 17 else "")
    return format(r, ".17e")


def _certified_decimal(x: AlgebraicNumber, log: bool = False) -> str:
    """x, or log(x) when log is set, to 18 significant digits, correctly
    rounded, for a real x (> 0 for log): x is refined until both ends of its
    enclosure, rounded outward to bits/4 digits, print the same digits (Ziv's
    method).  Decimal.ln is correctly rounded, so one ulp outward bounds it."""
    while x.bits <= MAX_BITS:
        e, ends = x.enclosure, set()
        with localcontext() as ctx:
            ctx.prec = x.bits // 4
            for end, rounding in ((e.re_num - e.rad_num, ROUND_FLOOR), (e.re_num + e.rad_num, ROUND_CEILING)):
                ctx.rounding = rounding
                v = Decimal(end) / e.den
                if log and (v := v.ln()):  # ln(1) = 0 is exact and stays
                    v = v.next_minus() if rounding == ROUND_FLOOR else v.next_plus()
                ends.add(_nstr18(v))
        if len(ends) == 1:
            return ends.pop()
        x = x.refined(2 * x.bits)
    raise PrecisionExhausted(f"no certified decimal of {x!r} within {MAX_BITS} bits")


def entropy_json(rep: classify.EntropyReport) -> dict:
    gamma = AlgebraicNumber(rep.gamma_minpoly, rep.gamma_enclosure)
    return {
        "value_decimal": _certified_decimal(gamma, log=True),
        "gamma_minpoly": rep.gamma_minpoly.to_json(),
        "is_salem": rep.is_salem,
        "structure_ok": rep.structure_ok,
        "structure_note": rep.structure_note,
    }


def salem_json(report: classify.SalemReport, poly: QPoly) -> dict:
    out = {
        "poly": poly.to_json(),
        "is_salem": report.is_salem,
        "reason": report.reason,
    }
    if report.lead_root is not None:
        out["lead_root"] = _certified_decimal(AlgebraicNumber(poly, report.lead_root))
    return out


def run_command(spec: EndomorphismSpec | None, cmd: dict) -> dict:
    """The report of one command as parse_job normalized it."""
    op = cmd["op"]
    if op == "salem":
        return {"op": op, **salem_json(classify.is_salem_polynomial(cmd["poly"]), cmd["poly"])}

    assert spec is not None
    if op == "check-algebra":
        at = classify.admissibility_check(spec)
        out = {"op": op, "albert_type": albert_json(at)}
        if spec.is_field_case:
            out["field_type"] = cm_structure(spec.algebra).kind
        else:
            rep = definiteness(spec.algebra)
            out["definiteness"] = {
                "kind": rep.kind,
                "signs": [[sa, sb] for sa, sb in rep.per_embedding_signs],
            }
        out["charpoly_q"] = spec.charpoly_q().to_json()
        return out
    if op == "fixpoints":
        return {"op": op, "fix": FixRows(fixed_point_table(spec, cmd["nmax"]))}
    if op == "entropy":
        rep = classify.entropy(spec)
        return {"op": op, "entropy": entropy_json(rep)}
    if op == "classify":
        at = classify.admissibility_check(spec)
        growth = classify.classify_growth(spec)
        rep = classify.entropy(spec)
        return {
            "op": op,
            "albert_type": albert_json(at),
            "growth": growth_json(growth),
            "entropy": entropy_json(rep),
        }
    raise ValidationError(f"unknown op {op!r}")
