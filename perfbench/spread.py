#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload classify-corpus --seeds 1-10 [--out summary.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every end-to-end metric the median of the runs, their quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the distance
between the quartiles over the median.  A change to endoscope is compared
with its parent on these figures (see ROADMAP item 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    results = []
    for seed in args.seeds:
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(dict(result, seed=seed))
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    out = {"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
           "attempted": sum(r["attempted"] for r in results), "failed": sum(r["failed"] for r in results),
           "metrics": {}}
    for name in results[0]["metrics"]:
        out["metrics"][name] = summary([r["metrics"][name]["value"] for r in results])
        m = out["metrics"][name]
        print(f"{name:14s} median {m['median']:12.6g}  q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  spread {m['spread']:.4f}")
    print(f"attempted {out['attempted']} failed {out['failed']}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
