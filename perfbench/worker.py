"""One workload in one fresh process.

Started by ``run.py``.  With ``--probe`` it sets up: imports the program,
builds the model and inputs under ``--work``, prints ``built`` and the
system-wide monotonic time, and exits; ``run.py`` repeats this to take the
median set-up time.  Without it, it reuses what a probe built under
``--work``, runs one discarded warm-up operation, a closed loop of operations
for the given seconds, then the reference checks, and writes its
measurements as JSON to ``--result``.  Building nothing itself keeps set-up
out of this process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refcheck  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_operation(cli_main, work, i: int, out: Path):
    """(seconds, error or None) for operation ``i``, written under ``out``."""
    argvs = work.steps(i, out)
    start = time.perf_counter()
    try:
        for argv in argvs:
            code = cli_main(argv)
            if code != 0:
                return time.perf_counter() - start, f"{argv[0]} exited {code}"
    except Exception:  # an operation that raises counts as failed
        return time.perf_counter() - start, traceback.format_exc()
    return time.perf_counter() - start, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    from waveshape import cli
    work = workloads.WORKLOADS[args.workload](Path(args.work), args.seed)
    if args.probe:
        work.build()
        print(f"built {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        return 0
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_rss_mb = max_rss_mb()

    ops_dir = Path(args.work) / "ops"
    warm_s, warm_err = run_operation(cli.main, work, 0, ops_dir / "op_000")
    if warm_err:
        print(f"warm-up operation failed: {warm_err}", file=sys.stderr)
        return 1
    if tracer:
        tracer.reset()
    times, done, failed = [], [0], 0
    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < args.seconds:
        i += 1
        out = ops_dir / f"op_{i:03d}"
        took, err = run_operation(cli.main, work, i, out)
        if err:
            failed += 1
            print(f"operation {i} failed: {err}", file=sys.stderr)
        else:
            times.append(took)
            done.append(i)
        if tracer:
            tracer.end_operation(dir_bytes(out))
    peak_rss_mb = max_rss_mb()
    if not times:
        print("no operation completed", file=sys.stderr)
        return 1

    check_errors = []
    for k in done:
        try:
            work.check(k, ops_dir / f"op_{k:03d}")
        except refcheck.CheckFailed as exc:
            check_errors.append(f"operation {k}: {exc}")
    for msg in check_errors:
        print(f"check failed: {msg}", file=sys.stderr)

    result = {
        "warmup_s": warm_s,
        "op_times_s": times,
        "attempted": i,
        "failed": failed,
        "correct": not check_errors,
        "check_errors": check_errors,
        "peak_rss_mb": peak_rss_mb,
        "setup_rss_mb": setup_rss_mb,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(times)
        result["trace_table"] = tracer.table()
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
