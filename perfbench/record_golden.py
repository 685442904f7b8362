#!/usr/bin/env python3
"""Record the exit code and stdout digest of every job of the default seed.

    python3 perfbench/record_golden.py [workload ...]

run.py compares each default-seed job against these records, so a report
that stops being byte-identical counts as failed.  Jobs that failed when the
records were made are left to the oracles.  Re-record only on purpose, when
a change is meant to alter the reports.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import run, workloads  # noqa: E402


def record(workload: str) -> dict:
    """Every job of the default seed's stream at the run length BENCHMARK.json sets."""
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    cli, jobs, _ = run.set_up(workload, run.DEFAULT_SEED, seconds)
    runs = [run.run_job(cli.main, job) for job in jobs]
    wrong = run.judge(runs, jobs, None)
    if wrong:
        raise SystemExit(f"{workload}: oracles refute {len(wrong)} answers, first: {wrong[0]}")
    failures = collections.Counter(r["kind"] for r in runs if not r["ok"])
    example = next((jobs[r["id"]] for r in runs if r["kind"] == "precision-exhausted"), None)
    return {
        **run.meta(workload, run.DEFAULT_SEED),
        "failed_by_kind": dict(sorted(failures.items())),
        "precision_exhausted_example": example and {"id": example["id"], "job": example["job"]},
        "jobs": [[r["code"], run.digest(r["stdout"])] for r in runs],
    }


def main() -> None:
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        data = record(workload)
        run.GOLDEN.mkdir(exist_ok=True)
        path = run.GOLDEN / f"{workload}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"{workload}: {len(data['jobs'])} jobs, failed {data['failed_by_kind'] or 'none'} -> {path}")


if __name__ == "__main__":
    main()
