"""voltfi campaign benchmark.

    python3 benchmark/run.py --workload campaign|mixed_faults --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (setup_s, experiments_per_s, total_s, peak_rss_mb); with --trace 1
it holds the per-layer metrics of a separate traced run, whose spans are
written under .bench_trace/. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import OUT_DIR, TRACE_DIR, import_program


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("campaign", "mixed_faults"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    import_program()
    # SIGTERM unwinds like an interrupt, so running voltfi children are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import campaign
    import mixed_faults
    workload = {"campaign": campaign, "mixed_faults": mixed_faults}[args.workload]
    work = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
            correct, metrics, attempted, failed = workload.traced(args.seed, args.seconds, work, trace_path)
        else:
            correct, metrics, attempted, failed = workload.timed(args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
