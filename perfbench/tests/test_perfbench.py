"""Tests of the benchmark's own machinery: generator, tracer and gate.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import endoscope  # noqa: E402
import endoscope.cli  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.speed import REF_SAMPLE_S, Speedometer  # noqa: E402
from perfbench.tracing import Tracer, package_modules  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_writes_byte_identical_job_files(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _files(_written(workload, 7, tmp_path / "a" / workload))
        again = _files(_written(workload, 7, tmp_path / "b" / workload))
        other = _files(_written(workload, 8, tmp_path / "c" / workload))
        assert first == again
        assert first != other


def _written(workload: str, seed: int, directory: Path) -> Path:
    workloads.write_stream(workloads.generate(workload, seed), directory)
    return directory


def _module_functions():
    """Every (module, attribute) of the package whose value is a public function of the package."""
    modules = [sys.modules["endoscope"], *package_modules().values()]
    defined = {
        id(value): value
        for mod in modules
        for name, value in vars(mod).items()
        if isinstance(value, types.FunctionType) and not name.startswith("_")
        and value.__module__.startswith("endoscope.")
    }
    return {(mod.__name__, name): value for mod in modules for name, value in vars(mod).items() if id(value) in defined}


def test_patching_replaces_every_copy_of_a_function():
    before = _module_functions()
    # `from .x import y` copies, e.g. the package re-exports and jobs' imports from lefschetz
    assert before[("endoscope", "is_salem_polynomial")] is before[("endoscope.classify", "is_salem_polynomial")]
    assert before[("endoscope.jobs", "fixed_points_exact")] is before[("endoscope.lefschetz", "fixed_points_exact")]
    qpoly_mul = endoscope.QPoly.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), original in before.items():
            now = vars(sys.modules[module])[name]
            assert now is not original, f"{module}.{name} still points to the original"
            assert now.__wrapped__ is original
        assert endoscope.QPoly.__mul__.__wrapped__ is qpoly_mul
        assert endoscope.NFElement.norm_q.__wrapped__ is not None
    finally:
        tracer.remove()
    for (module, name), original in before.items():
        assert vars(sys.modules[module])[name] is original
    assert endoscope.QPoly.__mul__ is qpoly_mul


def test_layer_self_times_sum_to_traced_wall_time(tmp_path):
    classify = workloads.write_stream(workloads.generate("classify-corpus", 0), tmp_path / "c")
    salem = workloads.write_stream(workloads.generate("salem-scan", 0), tmp_path / "s")
    jobs = [classify[0], classify[2], *salem[:4]]
    tracer, untraced, traced = run.overhead_passes(endoscope.cli, jobs)
    assert [r["code"] for r in traced] == [r["code"] for r in untraced] == [0] * len(jobs)
    assert [r["stdout"] for r in traced] == [r["stdout"] for r in untraced]

    self_s = tracer.self_seconds()
    wall = tracer.root_seconds()
    resolution = time.get_clock_info("perf_counter").resolution
    rounding = 4 * len(tracer.start) * math.ulp(max(tracer.end))
    assert abs(sum(self_s.values()) - wall) <= resolution + rounding
    # the roots are the calls into cli.main, inside the per-job times taken outside
    assert sum(p < 0 for p in tracer.parent) == len(jobs)
    assert wall <= sum(r["seconds"] for r in traced)
    for layer in ("cli", "jobs", "lefschetz", "quaternion", "numfield", "qpoly", "enclosures", "classify"):
        assert self_s[layer] > 0, layer


def test_gate_refutes_a_wrong_fixed_point_count(tmp_path):
    body = {"spec": workloads.FIXPOINT_POOL[0], "commands": [{"op": "fixpoints", "nmax": 6}]}
    jobs = workloads.write_stream([{"argv": ["run", None], "job": body}], tmp_path)
    good = run.run_job(endoscope.cli.main, jobs[0])
    assert run.judge([good], jobs, None) == [] and good["ok"]

    report = json.loads(good["stdout"])
    report["results"][0]["fix"][4]["fix"] = str(int(report["results"][0]["fix"][4]["fix"]) + 1)
    bad = dict(good, stdout=json.dumps(report, indent=2) + "\n")
    wrong = run.judge([bad], jobs, None)
    assert len(wrong) == 1 and "fix(f^5)" in wrong[0]
    assert not bad["ok"]


def test_gate_accepts_the_expected_rejection_of_a_zero_divisor(tmp_path):
    # 1 + i in the split algebra (1, 1 / Q) has reduced norm 1 - 1 = 0
    spec = workloads.quat_spec((0, 1), (1,), (1,), (1,), (1,), g=2)
    body = {"spec": spec, "commands": [{"op": "check-algebra"}, {"op": "classify"}]}
    jobs = workloads.write_stream([{"argv": ["run", None], "job": body}], tmp_path)
    result = run.run_job(endoscope.cli.main, jobs[0])
    assert result["code"] == 2
    assert run.judge([result], jobs, None) == [] and result["ok"]


def test_speedometer_takes_samples_out_and_rescales():
    speed = Speedometer()
    # samples at 0.0, 1.0 (inside the interval) and 2.5; the one inside ran at
    # half reference speed, the ones around it at reference speed
    speed.at.extend([0.0, 1.0, 2.5])
    speed.took.extend([REF_SAMPLE_S, 2 * REF_SAMPLE_S, REF_SAMPLE_S])
    own, ref = speed.reference(0.5, 2.0)
    assert own == 1.5 - 2 * REF_SAMPLE_S
    assert math.isclose(ref, own * 3 / 4)


def test_speedometer_samples_inside_a_running_job():
    with Speedometer() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
        t1 = time.perf_counter()
        speed.settle(t1)
    inside = [a for a in speed.at if t0 <= a < t1]
    assert len(inside) >= 5
    own, ref = speed.reference(t0, t1)
    assert 0 < own < t1 - t0 and ref > 0
