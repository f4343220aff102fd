"""campaign: voltfi genmaps, run --jobs <nproc> and report through the CLI.

This is the user's real job on a generated corpus at the default spatial
parameters, with both methods and all six benchmarks. It is the only
workload where hardware maps repeat one fault set across voltages and the
only one that uses the worker pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from pathlib import Path

from common import (
    BENCHMARKS,
    OUT_DIR,
    SRC,
    check_goldens,
    check_report_tables,
    median,
    count_rows,
    file_digest,
    nproc,
    passes,
    read_results,
    read_v1,
    require,
    run_cli,
    tree_digest,
)

VOLTAGES = tuple(range(540, 601, 10))
CORPUS_SEED = 1234
SRAMS_PER_SECOND = 0.5   # corpus size per --seconds of run time
TRACE_SRAMS = 5          # the traced run's corpus: SRAMs 0..4 of the same corpus seed
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 150


def config_text(n_srams: int, workload_seed: int) -> str:
    return f"corpus.n_srams = {n_srams}\ncorpus.seed = {CORPUS_SEED}\nworkload.seed = {workload_seed}\n"


def check_corpus(out: Path, n_srams: int) -> dict:
    """Own reading of the maps; returns {(method, sram_id, voltage): fault count} for faulty maps."""
    maps_dir = out / "maps"
    srams = sorted(p.name for p in maps_dir.iterdir())
    require(len(srams) == n_srams, f"{len(srams)} SRAM directories for {n_srams} SRAMs")
    faulty = {}
    for sram in srams:
        hw = {}
        for v in VOLTAGES:
            m = read_v1((maps_dir / sram / f"hw_{v}.fm").read_text(encoding="utf-8"))
            require(m.sram_id == sram and m.voltage_mv == v, f"header of {sram}/hw_{v}.fm")
            hw[v] = {(f[0], f[1]) for f in m.faults}
        for lo, hi in zip(VOLTAGES, VOLTAGES[1:]):
            require(hw[hi] <= hw[lo], f"{sram}: hardware map at {hi} mV is not inside the one at {lo} mV")
        names = {f"hw_{v}.fm" for v in VOLTAGES} | {f"rnd_{v}.fm" for v in VOLTAGES if hw[v]}
        require({p.name for p in (maps_dir / sram).iterdir()} == names, f"{sram}: unexpected set of map files")
        for v in VOLTAGES:
            if hw[v]:
                rnd = read_v1((maps_dir / sram / f"rnd_{v}.fm").read_text(encoding="utf-8"))
                require(len(rnd.faults) == len(hw[v]), f"{sram}/rnd_{v}.fm fault count differs from hw")
                faulty[("HW_FI", sram, v)] = len(hw[v])
                faulty[("RND_FI", sram, v)] = len(rnd.faults)
    return faulty


def check_outputs(out: Path, n_srams: int, workload_seed: int, key: str) -> None:
    """Maps, results.csv, the report tables, repeatability and the golden outputs."""
    faulty = check_corpus(out, n_srams)
    rows = read_results((out / "results.csv").read_text(encoding="utf-8"))
    keys = [(r[0], r[1], r[2], r[3]) for r in rows]
    expected = {(b, method, sram, v): count for (method, sram, v), count in faulty.items() for b in BENCHMARKS}
    require(len(set(keys)) == len(keys) and set(keys) == set(expected),
            "results.csv does not hold exactly one row per (benchmark, method, faulty map)")
    require(all(r[4] == expected[k] for k, r in zip(keys, rows)), "results.csv fault_count differs from the map file")
    check_report_tables(rows, out / "report")
    check_repeatable(key, file_digest(out / "results.csv") + ":" + tree_digest(out / "report"))
    from voltfi.harness import golden_run
    from voltfi.workloads import WorkloadConfig
    check_goldens({b: golden_run(b, WorkloadConfig(b, seed=workload_seed)) for b in BENCHMARKS}, workload_seed)


def check_repeatable(key: str, digest: str) -> None:
    """results.csv and the report must hash the same in every run of the same sources and config."""
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(str(p.relative_to(SRC)).encode())
        src.update(p.read_bytes())
    store = OUT_DIR / "campaign_digests.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    full_key = src.hexdigest() + ":" + key
    require(seen.setdefault(full_key, digest) == digest, "results.csv or the report differ from an earlier run")
    store.write_text(json.dumps(seen, indent=0))


def timed(seed: int, seconds: int, work: Path):
    n_srams = max(1, round(seconds * SRAMS_PER_SECOND))
    text = config_text(n_srams, seed)
    work.mkdir(parents=True)
    cfg = work / "campaign.cfg"
    cfg.write_text(text)
    jobs = nproc()
    setup_s, corpus_digests = [], set()
    for r in range(SETUP_REPEATS):
        out = work / f"out{r}"
        t_start = time.perf_counter()
        wall = run_cli(["--config", str(cfg), "--out", str(out), "genmaps"], CLI_TIMEOUT_S)
        setup_s.append(wall)
        corpus_digests.add(tree_digest(out))
    run_s = run_cli(["--config", str(cfg), "--out", str(out), "--jobs", str(jobs), "run"], CLI_TIMEOUT_S)
    run_cli(["--config", str(cfg), "--out", str(out), "report"], CLI_TIMEOUT_S)
    total_s = time.perf_counter() - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    ok = passes(require, len(corpus_digests) == 1, "genmaps wrote different corpora for the same config")
    ok = passes(check_outputs, out, n_srams, seed, text) and ok
    experiments = count_rows(out / "results.csv")
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "experiments_per_s": (experiments / run_s, "1/s"),
        "total_s": (total_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return ok, metrics, experiments, 0


def _cli(args) -> None:
    from voltfi import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"voltfi {' '.join(args)} exited {code}")


def _in_process(cfg: Path, out: Path) -> float:
    """genmaps, run --jobs 1 and report in this process; returns the run's wall time."""
    _cli(["--config", str(cfg), "--out", str(out), "genmaps"])
    t0 = time.perf_counter()
    _cli(["--config", str(cfg), "--out", str(out), "--jobs", "1", "run"])
    run_s = time.perf_counter() - t0
    _cli(["--config", str(cfg), "--out", str(out), "report"])
    return run_s


def traced(seed: int, seconds: int, work: Path, trace_path: Path):
    from layers import instrument, layer_metrics
    from spans import Tracer

    text = config_text(TRACE_SRAMS, seed)
    work.mkdir(parents=True)
    cfg = work / "campaign.cfg"
    cfg.write_text(text)
    jobs = nproc()
    plain = work / "untraced"
    serial_s = _in_process(cfg, plain)
    pool_s = run_cli(["--config", str(cfg), "--out", str(plain), "--jobs", str(jobs), "run"], CLI_TIMEOUT_S)
    tr = Tracer()
    counters = instrument(tr)
    try:
        traced_s = _in_process(cfg, work / "traced")
    finally:
        tr.uninstall()
    ok = passes(check_outputs, work / "traced", TRACE_SRAMS, seed, text)
    ok = passes(require, tree_digest(plain) == tree_digest(work / "traced"),
                f"--jobs {jobs} and a traced --jobs 1 run wrote different output trees") and ok
    experiments = count_rows(work / "traced" / "results.csv")
    tr.dump(trace_path)

    # work_s comes from the traced serial run; scale it to untraced time before
    # comparing it with the pool's wall time
    work_s = sum(s[3] - s[2] for s in tr.kept("harness.run_experiment")) / 1e9
    efficiency = work_s * (serial_s / traced_s) / (jobs * pool_s)
    metrics = layer_metrics(tr, counters, experiments / serial_s, experiments / traced_s, efficiency)
    return ok, metrics, experiments, 0
