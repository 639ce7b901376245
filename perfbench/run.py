"""Closed-loop benchmark of the waveshape CLI.

    python3 perfbench/run.py --workload {generate,edit,geometry} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout.  Set-up runs three times in fresh
probe processes; then one client runs operations back to back in a fresh
worker process, on the last probe's model and inputs, for S seconds after one
discarded warm-up operation.  With ``--trace 0`` the last line of output is
the JSON result with the end-to-end metrics; with ``--trace 1`` the worker
wraps each module's public functions and the result carries the per-layer
metrics instead.
Artifacts of every operation are checked against reference computations
made apart from the program (``refcheck.py``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# Set-up runs this many times in fresh processes; setup_s takes the median.
SETUP_REPEATS = 3
DEADLINE_S = 175.0
THREAD_ENV = {
    "WAVESHAPE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, work: Path, result: Path | None, deadline: float) -> float:
    """Run a worker to its end.  A probe (no ``result``) builds under
    ``work`` and returns the seconds from its start until set-up was done."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    cmd += ["--probe"] if result is None else ["--result", str(result)]
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    start = now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    if result is not None:
        return 0.0
    built = [line.split()[1] for line in stdout.splitlines()
             if line.startswith("built ")]
    if not built:
        raise RuntimeError("probe worker did not report set-up")
    return float(built[0]) - start


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": THREAD_ENV}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    if not (ROOT / "src" / "waveshape" / "cli.py").is_file():
        return fail(f"no waveshape sources under {ROOT / 'src'}; run from the "
                    f"root of a checkout")
    deadline = now() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = OUT / "work" / f"{tag}-{os.getpid()}"
    result_path = work_root / "result.json"
    builds = []
    try:
        for k in range(SETUP_REPEATS):
            if k:
                shutil.rmtree(work_root / f"setup{k - 1}")
            builds.append(spawn(args, work_root / f"setup{k}", None, deadline))
        # The measuring worker reuses the last probe's model and inputs.
        spawn(args, work_root / f"setup{SETUP_REPEATS - 1}", result_path,
              deadline)
        res = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    times = res["op_times_s"]
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(builds) + res["warmup_s"],
                        "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    out = {"correct": res["correct"], "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}
    record = dict(out, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment(), setup_builds_s=builds,
                  warmup_s=res["warmup_s"], op_times_s=times,
                  setup_rss_mb=res["setup_rss_mb"],
                  check_errors=res["check_errors"])
    if args.trace:
        record["trace_table"] = res["trace_table"]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(times)} operations in "
          f"{sum(times):.2f} s, attempted {out['attempted']}, failed "
          f"{out['failed']}, checks {'passed' if out['correct'] else 'FAILED'}")
    print(f"# rss after set-up {res['setup_rss_mb']:.1f} MB, peak "
          f"{res['peak_rss_mb']:.1f} MB")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
