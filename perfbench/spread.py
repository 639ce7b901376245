"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME

Runs ``run.py --trace 0`` once per seed 1-10, one run at a time, for the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, plus the share of failed
operations.  Results go to ``.perfbench-out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"
SEEDS = range(1, 11)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(dict(res, seed=seed))
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()),
            flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
    failed = [r["failed"] / r["attempted"] for r in runs]
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, s in summary.items():
        print(f"{name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['iqr_share']:8.4f}")
    print(f"correct in every run: {all(r['correct'] for r in runs)}; failed "
          f"share per run: {sorted(set(failed))}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
