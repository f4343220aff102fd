"""mixed_faults: distinct mixed-kind fault maps through the harness, in one process.

The benchmark writes its own v1 maps: every map is a distinct fault set of
2 to 16 faults mixing stuck-at-0, stuck-at-1 and bit flips with permanent,
transient and intermittent timing. For each map and each of the six
benchmarks it calls faultmap.parse_fault_map, then harness.run_experiment
against harness.golden_run outputs, then writes records_to_csv and
report.write_reports. This exercises the branches of the cache's fault
application that the corpus generator never emits, with no repeated fault
set and no worker pool.

The maps come from a fixed stream and --seed sets the kernel inputs: drawn
per seed, the maps alone moved experiments/s by up to 14% between seeds.
Besides the drawn maps there is a zero-fault control, which must classify
as correct on every benchmark, and a probe that makes mc's
boundary_segment overflow (both coordinates of mc's first point get the
f64 exponent MSB set), so exactly one experiment per run fails. Drawn maps
never place a stuck-at-1 or flip fault on bit 62 of a 64-bit word, the
only bit that can give a coordinate that huge an exponent: whether a draw
held one would decide whether the run has a failure, and failure counts
must match between runs. The probe measures the overflow instead.
"""

from __future__ import annotations

import math
import resource
import time
from pathlib import Path

import numpy as np

from common import (
    BENCHMARKS,
    MapText,
    check_goldens,
    check_report_tables,
    median,
    own_quality,
    passes,
    read_results,
    require,
    write_v1,
)

MAP_SEED = 1234
ROWS = COLS = 128
KINDS = ("stuck0", "stuck1", "flip")
MODES = ("permanent", "transient", "intermittent")
TICK_SPAN = 1 << 16      # transient and intermittent faults start in the first 64 Ki accesses
MAX_DURATION = 4096      # intermittent window length, in accesses
EXPONENT_MSB = 62
STEP_BUDGET = 600_000    # 1.8x mc's golden op count; above jacobi's 512,000-op 500-iteration maximum
MAPS_PER_SECOND = 1.5    # drawn maps per --seconds of run time
TRACE_SHARE = 0.25       # the traced run uses this share of the timed run's maps
SETUP_REPEATS = 5

CONTROL = MapText("control", 540, ROWS, COLS, ())
PROBE = MapText("probe", 540, ROWS, COLS, ((0, 62, "stuck1", "permanent", None),
                                           (64, 62, "stuck1", "permanent", None)))


def draw_maps(seed: int, n_maps: int) -> list[MapText]:
    """n_maps distinct maps; map j has 2 + j % 15 faults and an even mix of the nine kind/timing pairs."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    maps = []
    for j in range(n_maps):
        used, faults = set(), []
        for i in range(2 + j % 15):
            pair = (j + i) % 9
            kind, mode = KINDS[pair % 3], MODES[pair // 3]
            while True:
                bit = int(rng.integers(ROWS * COLS))
                if bit not in used and (kind == "stuck0" or bit % 64 != EXPONENT_MSB):
                    break
            used.add(bit)
            if mode == "permanent":
                timing = "permanent"
            elif mode == "transient":
                timing = f"transient:{int(rng.integers(TICK_SPAN))}"
            else:
                timing = f"intermittent:{int(rng.integers(TICK_SPAN))}:{int(rng.integers(1, MAX_DURATION + 1))}"
            faults.append((bit // COLS, bit % COLS, kind, timing, None))
        faults.sort(key=lambda f: f[0] * COLS + f[1])
        maps.append(MapText(f"mix{j:05d}", 540, ROWS, COLS, tuple(faults)))
    return maps


def one_pass(texts: list[str], out: Path, setup_repeats: int, workload_seed: int) -> dict:
    """Goldens, then parse + run_experiment for every (map, benchmark), then the CSV and the report."""
    from voltfi import faultmap, harness, report
    from voltfi.cachesim import CacheGeometry
    from voltfi.workloads import WorkloadConfig

    geo = CacheGeometry()
    cfgs = {b: WorkloadConfig(b, seed=workload_seed, step_budget=STEP_BUDGET) for b in BENCHMARKS}
    setup_s, golden_sets = [], []
    for _ in range(setup_repeats):
        t_setup = time.perf_counter()
        goldens = {b: harness.golden_run(b, cfgs[b], geo) for b in BENCHMARKS}
        setup_s.append(time.perf_counter() - t_setup)
        golden_sets.append(goldens)

    last = [None]  # the faulty WorkloadResult of the experiment that just ran, for the checks
    run_workload = harness.run_workload

    def capture(*args, **kwargs):
        last[0] = run_workload(*args, **kwargs)
        return last[0]

    harness.run_workload = capture
    parsed, records, outputs, failures = [], [], [], []
    try:
        t_exp = time.perf_counter()
        for mi, text in enumerate(texts):
            fmap = faultmap.parse_fault_map(text)
            parsed.append(fmap)
            for b in BENCHMARKS:
                try:
                    rec = harness.run_experiment(b, cfgs[b], fmap, "RND_FI", goldens[b], geo)
                except Exception as e:  # an escaping exception fails this experiment, not the workload
                    failures.append((mi, b, f"{type(e).__name__}: {e}"))
                    continue
                records.append(rec)
                outputs.append((mi, b, last[0]))
        exp_s = time.perf_counter() - t_exp
    finally:
        harness.run_workload = run_workload
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_bytes(harness.records_to_csv(records).encode("utf-8"))
    report.write_reports(records, out / "report")
    end = time.perf_counter()
    return {"setup_s": setup_s, "golden_sets": golden_sets, "goldens": goldens, "parsed": parsed,
            "records": records, "outputs": outputs, "failures": failures, "exp_s": exp_s,
            "total_s": end - t_setup, "out": out}


def check(maps: list[MapText], p: dict, workload_seed: int) -> None:
    goldens = p["goldens"]
    for other in p["golden_sets"]:
        require(all(other[b].data == goldens[b].data for b in BENCHMARKS), "golden runs differ between repeats")
    check_goldens(goldens, workload_seed)

    drawn = [m.faults for m in maps[2:]]
    require(len(set(drawn)) == len(drawn) and PROBE.faults not in drawn and all(drawn),
            "drawn maps are not distinct non-empty fault sets")
    for m, fmap in zip(maps, p["parsed"]):
        back = tuple((f.location.row, f.location.col, f.kind.value, f.timing.token(), f.onset_voltage_mv)
                     for f in fmap.faults)
        require(back == m.faults and fmap.sram_id == m.sram_id and fmap.voltage_mv == m.voltage_mv,
                f"parse_fault_map read back a different map for {m.sram_id}")

    expected = []
    for (mi, b, result), rec in zip(p["outputs"], p["records"]):
        m = maps[mi]
        require((rec.benchmark, rec.sram_id, rec.voltage_mv, rec.fault_count)
                == (b, m.sram_id, m.voltage_mv, len(m.faults)), f"record mismatch for {m.sram_id}/{b}")
        g = goldens[b]
        if rec.outcome.value == "crash":
            require(result.is_crash, f"{m.sram_id}/{b}: crash without a crash reason")
        elif rec.outcome.value == "correct":
            require(result.data == g.data, f"{m.sram_id}/{b}: correct outcome with output unlike the golden's")
        else:
            require(result.data != g.data, f"{m.sram_id}/{b}: sdc with golden output")
            q = own_quality(b, g.as_array(), result.as_array())
            require(math.isclose(q, rec.quality.value, rel_tol=1e-9),
                    f"{m.sram_id}/{b}: quality {rec.quality.value} but recomputed {q}")
        if m is CONTROL:
            require(rec.outcome.value == "correct", f"zero-fault control of {b} is {rec.outcome.value}")
        expected.append((b, "RND_FI", m.sram_id, m.voltage_mv, len(m.faults), rec.outcome.value))
    require(all(maps[mi] is PROBE and b == "mc" for mi, b, _ in p["failures"]),
            f"unexpected failed experiments: {p['failures']}")

    rows = read_results((p["out"] / "results.csv").read_text(encoding="utf-8"))
    require(sorted(r[:6] for r in rows) == sorted(expected), "results.csv rows differ from the experiments run")
    check_report_tables(rows, p["out"] / "report")


def timed(seed: int, seconds: int, work: Path):
    maps = [CONTROL, PROBE] + draw_maps(MAP_SEED, max(1, round(seconds * MAPS_PER_SECOND)))
    p = one_pass([write_v1(m) for m in maps], work, SETUP_REPEATS, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = passes(check, maps, p, seed)
    done = len(p["records"])
    metrics = {
        "setup_s": (median(p["setup_s"]), "s"),
        "experiments_per_s": (done / p["exp_s"], "1/s"),
        "total_s": (p["total_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return ok, metrics, done + len(p["failures"]), len(p["failures"])


def traced(seed: int, seconds: int, work: Path, trace_path: Path):
    from layers import instrument, layer_metrics
    from spans import Tracer

    maps = [CONTROL, PROBE] + draw_maps(MAP_SEED, max(1, round(seconds * MAPS_PER_SECOND * TRACE_SHARE)))
    texts = [write_v1(m) for m in maps]
    plain = one_pass(texts, work / "untraced", 1, seed)
    tr = Tracer()
    counters = instrument(tr)
    try:
        p = one_pass(texts, work / "traced", 1, seed)
    finally:
        tr.uninstall()
    ok = passes(check, maps, p, seed)
    ok = passes(require, (plain["out"] / "results.csv").read_bytes() == (p["out"] / "results.csv").read_bytes(),
                "tracing changed results.csv") and ok
    tr.dump(trace_path)
    done = len(p["records"])
    metrics = layer_metrics(tr, counters, len(plain["records"]) / plain["exp_s"], done / p["exp_s"])
    return ok, metrics, done + len(p["failures"]), len(p["failures"])
