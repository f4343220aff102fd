"""Alternating parent/change runs of the benchmark, summarised per side.

    python3 tools/bench_pairs.py [--parent REV]

Run it from the root of a checkout. The "change" side is that checkout's
working tree. The "parent" side is REV, whose committed files `git archive`
exports into a temporary directory that is removed at the end. REV defaults
to HEAD when tracked files have uncommitted changes, else to HEAD~1.

For each workload of BENCHMARK.json it runs `python3 benchmark/run.py
--workload W --seed S --seconds N`, N being BENCHMARK.json's run_seconds,
as PAIRS pairs of one parent and one change run. The side that runs first
alternates from pair to pair, and the seed rotates over SEEDS, so host
drift and seed effects fall on both sides alike. Every run's end-to-end
metrics and its correct/attempted/failed go to BENCH_20.json, with each
side's median and quartiles, the ratio of the medians, whether the medians
differ by more than the parent's interquartile spread, and how many pairs
the change won on each metric. The file is rewritten after every run, so
an interrupted run keeps what it measured.
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
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_20.json"
PAIRS = 10
SEEDS = (5, 6, 7)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed files of rev under dest."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=40 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarise(runs: list[dict], better: dict) -> dict:
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {}
        for name in better:
            values = [r["metrics"][name] for r in mine]
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            else:
                q1 = med = q3 = values[0] if values else None
            out[side][name] = {"median": med, "q1": q1, "q3": q3}
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    full = [p for p in pairs.values() if len(p) == 2]
    out["pairs"] = len(full)
    out["change_wins"] = {
        name: sum((p["change"][name] > p["parent"][name]) == (better[name] == "higher")
                  and p["change"][name] != p["parent"][name] for p in full)
        for name in better
    }
    out["median_ratio"] = {
        name: out["change"][name]["median"] / out["parent"][name]["median"]
        if full and out["parent"][name]["median"] else None
        for name in better
    }
    # a gain counts when the medians differ by more than the parent's interquartile spread
    out["median_gap_exceeds_parent_iqr"] = {
        name: abs(out["change"][name]["median"] - out["parent"][name]["median"])
        > out["parent"][name]["q3"] - out["parent"][name]["q1"]
        if full else None
        for name in better
    }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="parent revision (default: HEAD if tracked files changed, else HEAD~1)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # this tool's own output does not count as a change
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", ".", f":!{OUT.name}"))
    parent = git("rev-parse", args.parent or ("HEAD" if dirty else "HEAD~1"))

    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        export(parent, tmp)
        doc = {
            "command": f"python3 benchmark/run.py --workload W --seed S --seconds {seconds}",
            "parent": parent,
            "change": git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
            "pairs": PAIRS,
            "seeds": SEEDS,
            "workloads": {},
        }
        trees = {"parent": tmp, "change": ROOT}
        for workload in workloads:
            runs = []
            doc["workloads"][workload] = {"runs": runs}
            for pair in range(PAIRS):
                seed = SEEDS[pair % len(SEEDS)]
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    t0 = time.time()
                    r = run_once(trees[side], workload, seed, seconds)
                    runs.append({"pair": pair, "side": side, "seed": seed, **r})
                    print(f"{workload} pair {pair} {side} seed {seed}: "
                          f"{r['metrics']['experiments_per_s']:.3f} experiments/s, "
                          f"failed {r['failed']}/{r['attempted']} ({time.time() - t0:.0f} s)", flush=True)
                    doc["workloads"][workload]["summary"] = summarise(runs, better)
                    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
