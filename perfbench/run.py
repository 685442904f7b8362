#!/usr/bin/env python3
"""Job-stream benchmark for endoscope.

    python3 perfbench/run.py --workload classify-corpus --seed 0 --seconds 45 --trace 0

BENCHMARK.json gates fixpoints-sweep and classify-corpus; salem-scan runs the
same way and is kept for the enclosure work of ROADMAP item 3.

One client in one process sends seeded jobs through the CLI entry point
``endoscope.cli.main`` in a closed loop, each after the previous one
returned, with stdout captured.  endoscope is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.

With ``--trace 0`` the stream runs once and the end-to-end metrics are
reported.  The stream has a whole number of blocks, sized from ``--seconds``
at a fixed reference rate, so a run makes the same jobs however fast it goes.
With ``--trace 1`` a fixed prefix of the stream runs once untraced and once
traced, and the per-layer metrics come from the traced pass.  Every answer is
checked after the timed region: against the recorded exit code and stdout
digest for the default seed, and against independent oracles for every seed.
The last stdout line is one JSON object; exit code 1 means an answer was
wrong, 2 that the benchmark could not run.

Times are reported at reference machine speed (see ``perfbench/speed.py``):
the host is a share of a busy machine whose speed moves within a second, so
speed is sampled throughout and every time is rescaled by it.  The raw
wall-clock figures are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden"
DEFAULT_SEED = 0
SETUP_REPEATS = 11
# a quick Salem test, run untimed before the loop so that no timed job pays
# for first calls; x^4 - x^3 - x^2 - x + 1 is the smallest Salem quartic
WARMUP_ARGV = ["salem", "1,-1,-1,-1,1"]
# jobs in the traced prefix, which runs twice: for classify-corpus the
# anchors and one block, so every class of job is traced
TRACE_JOBS = {"fixpoints-sweep": 40, "classify-corpus": 53, "salem-scan": 200}

sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402
from perfbench.speed import Speedometer  # noqa: E402


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source tree, wrong import)."""


# ---------------------------------------------------------------------------
# set-up: import the checkout's endoscope and write the seeded job files


def import_endoscope():
    src = ROOT / "src"
    if not (src / "endoscope" / "__init__.py").is_file():
        raise SetupError(f"no endoscope source tree under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "endoscope" or n.startswith("endoscope.")]:
        del sys.modules[name]
    cli = importlib.import_module("endoscope.cli")
    if Path(cli.__file__).resolve().parent != (src / "endoscope").resolve():
        raise SetupError(f"imported endoscope from {cli.__file__}, not from {src}")
    return cli


def set_up(workload: str, seed: int, seconds: float):
    """Import and write the stream SETUP_REPEATS times.

    Returns the module, the jobs, and each repeat's (own, reference) seconds
    as ``Speedometer.reference`` gives them; the median reference time is
    setup_s.
    """
    directory = WORK / f"{workload}-s{seed}"
    spans = []
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cli = import_endoscope()
            jobs = workloads.write_stream(workloads.generate(workload, seed, seconds), directory)
            spans.append((t0, time.perf_counter()))
        speed.settle(spans[-1][1])
    return cli, jobs, [speed.reference(*span) for span in spans]


# ---------------------------------------------------------------------------
# the closed loop


def run_job(main, job: dict) -> dict:
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
    except (Exception, SystemExit) as exc:  # a job that escapes cli.main is a failure, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return {"id": job["id"], "code": code, "stdout": out.getvalue(), "seconds": t1 - t0, "span": (t0, t1), "error": error}


def job_precision(job: dict) -> int:
    return job.get("job", {}).get("precision_bits") or 128


def closed_loop(main, jobs: list[dict]) -> list[dict]:
    """Every job once, in stream order, with machine speed sampled throughout."""
    with Speedometer() as speed:
        run_job(main, {"id": -1, "argv": WARMUP_ARGV})
        runs = [run_job(main, job) for job in jobs]
        speed.settle(runs[-1]["span"][1])
    for run in runs:
        run["seconds"], run["ref_seconds"] = speed.reference(*run["span"])
    return runs


def overhead_passes(cli, jobs: list[dict]):
    """Run each job untraced and traced, alternating which goes first."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    for i, job in enumerate(jobs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(run_job(cli.main, job))
                continue
            tracer.install()
            try:
                tracer.job, tracer.job_precision = job["id"], job_precision(job)
                traced.append(run_job(cli.main, job))
            finally:
                tracer.remove()
    return tracer, untraced, traced


# ---------------------------------------------------------------------------
# the correctness gate


def load_golden(workload: str, seed: int) -> dict | None:
    path = GOLDEN / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return {i: tuple(entry) for i, entry in enumerate(data["jobs"])}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(runs: list[dict], jobs: list[dict], golden: dict | None):
    """Mark each run ok or failed; return the answers an oracle refutes."""
    from perfbench.oracles import Oracle
    from endoscope.lefschetz import companion_oracle
    from endoscope.qpoly import QPoly

    oracle = Oracle(companion_oracle, QPoly)
    wrong = []
    verdicts: dict[tuple, tuple[bool, str | None]] = {}
    first_digest: dict[int, str] = {}
    for run in runs:
        job = jobs[run["id"]]
        sha = digest(run["stdout"])
        key = (run["id"], run["code"], sha)
        if key not in verdicts:
            verdicts[key] = _verdict(oracle, job, run)
        ok, problem = verdicts[key]
        if problem:
            wrong.append(f"job {run['id']}: {problem}")
        if golden is not None and run["id"] in golden:
            want_code, want_sha = golden[run["id"]]
            # a job that failed when the digests were recorded may now succeed: oracles decide
            if want_code in (0, 2) and (run["code"], sha) != (want_code, want_sha):
                ok = False
        # the README promises byte-identical output on reruns
        if first_digest.setdefault(run["id"], sha) != sha:
            ok = False
        run["ok"] = ok
        run["kind"] = _error_kind(run)
    return wrong


def _error_kind(run: dict) -> str | None:
    if run["error"]:
        return "exception"
    if run["code"] == 0:
        return None
    try:
        return json.loads(run["stdout"])["error"]["kind"]
    except (ValueError, KeyError, TypeError):
        return f"exit-{run['code']}"


def _verdict(oracle, job: dict, run: dict) -> tuple[bool, str | None]:
    """(answer accepted, oracle contradiction or None)."""
    from perfbench.oracles import check_salem

    if run["error"] or run["code"] not in (0, 2):
        return False, None
    try:
        report = json.loads(run["stdout"])
    except ValueError:
        return False, "stdout is not JSON"
    if job["argv"][0] == "salem":
        if run["code"] != 0:
            return False, None
        if [int(c.split("/")[0]) for c in report["poly"]] != [int(c) for c in job["argv"][1].split(",")]:
            return False, "salem report echoes another polynomial"
        problem = check_salem(report)
        return problem is None, problem
    if run["code"] == 2 and report["error"]["kind"] == "internal-cross-check":
        # two paths that must agree did not: a wrong answer caught inside the program
        return False, report["error"]["detail"]
    body = job["job"]
    spec = body.get("spec")
    expected = oracle.expected_rejection(spec, [c["op"] for c in body["commands"]]) if spec else None
    if run["code"] == 2:
        return report["error"]["kind"] == expected and expected is not None, None
    if expected is not None:
        return False, f"accepted an input that must be rejected as {expected}"
    problem = oracle.check_run_report(spec, report)
    return problem is None, problem


# ---------------------------------------------------------------------------
# metrics


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(runs, setup_times, rss_mb) -> dict:
    """Times at reference speed, then their wall-clock counterparts."""
    ms = [r["ref_seconds"] * 1000 for r in runs]
    wall_ms = [r["seconds"] * 1000 for r in runs]
    ok = sum(r["ok"] for r in runs)
    return {
        "job_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "job_p90_ms": (p90(ms), "ms", len(ms)),
        "setup_s": (statistics.median(t for _, t in setup_times), "s", len(setup_times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "jobs_per_s": (ok * 1000 / sum(ms), "1/s", ok),
        "failed_frac": ((len(runs) - ok) / len(runs), "ratio", len(runs)),
        "wall.job_p50_ms": (statistics.median(wall_ms), "ms", len(ms)),
        "wall.job_p90_ms": (p90(wall_ms), "ms", len(ms)),
        "wall.setup_s": (statistics.median(w for w, _ in setup_times), "s", len(setup_times)),
        "wall.jobs_per_s": (ok * 1000 / sum(wall_ms), "1/s", ok),
        # reference over wall time: below 1 when the host ran slower than reference
        "machine_speed": (sum(ms) / sum(wall_ms), "ratio", len(ms)),
    }


def per_layer(names: list[str], tracer, traced_runs, untraced_runs) -> dict:
    """The declared per-layer metrics: ``<layer>.self_s``, ``<layer>.calls``,
    ``<layer>.<function>.calls`` and three ratios."""
    n = len(traced_runs)
    self_s = tracer.self_seconds()
    layer_calls = tracer.layer_calls()
    cm_calls = tracer.counts["numfield.cm_structure"]
    isolate = tracer.counts["enclosures.isolate_roots"]
    traced = sum(r["seconds"] for r in traced_runs)
    untraced = sum(r["seconds"] for r in untraced_runs)
    ratios = {
        # cm_structure answers from the field's cache unless it runs the uncached classifier
        "numfield.cm_structure.hit_frac": (
            1 - tracer.counts["numfield.cm_structure_uncached"] / cm_calls if cm_calls else 0.0, cm_calls),
        "enclosures.escalation_frac": (tracer.escalations / isolate if isolate else 0.0, isolate),
        "trace.overhead_frac": (traced / untraced - 1, n),
    }
    out = {}
    for name in names:
        if name in ratios:
            out[name] = (ratios[name][0], "ratio", ratios[name][1])
        elif name.endswith(".self_s"):
            out[name] = (self_s.get(name[: -len(".self_s")], 0.0), "s", n)
        elif name.count(".") == 1:
            out[name] = (layer_calls[name[: -len(".calls")]], "count", n)
        else:
            out[name] = (tracer.counts[name[: -len(".calls")]], "count", n)
    return out


def meta(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} x{os.cpu_count()}",
    }


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "endoscope").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=workloads.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, jobs, setup_times = set_up(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        prefix = jobs[: TRACE_JOBS[args.workload]]
        tracer, untraced, traced = overhead_passes(cli, prefix)
        runs = untraced + traced
    else:
        runs = closed_loop(cli.main, jobs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = judge(runs, jobs, load_golden(args.workload, args.seed))
    failed = sum(not r["ok"] for r in runs)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if args.trace:
        metrics = per_layer(names, tracer, traced, untraced)
        tracer.write(WORK / "traces" / f"{args.workload}-s{args.seed}.csv")
    else:
        metrics = end_to_end(runs, setup_times, rss_mb)

    info = dict(meta(args.workload, args.seed), trace=args.trace)
    kinds = sorted({r["kind"] for r in runs if not r["ok"]} - {None})
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# jobs attempted={len(runs)} failed={failed} kinds={','.join(kinds) or '-'}")
    for name, (value, unit, count) in metrics.items():
        print(f"{name:46s} {value:14.6f} {unit:6s} n={count}")
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(info, **result, all_metrics={k: v[0] for k, v in metrics.items()},
                  jobs=[[r["id"], r["code"], round(r["seconds"] * 1000, 3), r["ok"],
                        round(r.get("ref_seconds", r["seconds"]) * 1000, 3)] for r in runs])
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
