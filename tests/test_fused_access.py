"""Differential tests of the fused access path against `reference_access`.

The fused path (`voltfi.workloads.memory.SimMemory`, a `CacheModel` with a
line-to-slot dict, stuck-at masks and typed accessors that serve a hit in
their own frame) must be indistinguishable from the per-access model kept
in `tests/reference_access.py`: the same values, the same crash at the same
step, the same ticks and ops, and the same backing-store bytes.
"""

import ast
import struct
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_access as ref
from voltfi.cachesim import CacheGeometry, CrashSignal, MainMemory
from voltfi.faultmap import (
    BitLocation,
    CorpusParams,
    CorruptionKind,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SramGeometry,
    generate_corpus,
    match_random_map,
)
from voltfi.rng import make_rng, substream
from voltfi.workloads import BENCHMARKS, WorkloadConfig, WorkloadResult, build_memory, execute, get, run_workload
from voltfi.workloads.memory import Region, SimMemory

SRAM = SramGeometry()
GEO = CacheGeometry()               # 16 sets x 2 ways x 64 B
SIZE = 4096                         # twice the cache: constant eviction
# region edges off line boundaries, so partial lines take the span check
REGIONS = (Region("tables", 0, 200), Region("data", 1000, 2000), Region("tail", 3100, 900))
EDGES = sorted({e for r in REGIONS for e in (r.base, r.end)})
FORMATS = {"f64": "<d", "u64": "<Q", "u32": "<I", "u8": "<B"}
STEP_BUDGET = 60

timings = st.one_of(
    st.just(FaultTiming.permanent()),
    st.builds(FaultTiming.transient, st.integers(0, 300)),
    st.builds(FaultTiming.intermittent, st.integers(0, 300), st.integers(1, 80)),
)
fault_maps = st.lists(
    st.tuples(st.integers(0, SRAM.capacity - 1), st.sampled_from(list(CorruptionKind)), timings),
    max_size=400, unique_by=lambda f: f[0],
).map(lambda faults: FaultMap("t", 540, SRAM, tuple(
    FaultSpec(BitLocation(b // SRAM.cols, b % SRAM.cols), timing, kind) for b, kind, timing in faults)))
addresses = st.one_of(
    st.integers(0, SIZE // 8 - 1).map(lambda w: 8 * w),         # aligned words
    st.integers(1, SIZE // 64 - 1).map(lambda line: 64 * line - 3),  # line-crossing
    st.sampled_from(EDGES).flatmap(lambda e: st.integers(e - 12, e + 4)),  # around region edges
    st.integers(-24, SIZE + 24),                              # anywhere, negative and past the end
)
accesses = st.one_of(
    st.tuples(st.just("load"), st.sampled_from(sorted(FORMATS)), addresses),
    st.tuples(st.just("store"), st.sampled_from(sorted(FORMATS)), addresses, st.binary(min_size=8, max_size=8)),
)
traces = st.lists(st.one_of(
    accesses, accesses, accesses, accesses, accesses, accesses,
    st.tuples(st.just("charge"), st.integers(1, 8)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("install"), st.integers(0, 1)),
), max_size=250)


def build_fused(fmap):
    """(typed memory, its cache) of the fused path, with fmap installed."""
    mem = SimMemory(GEO, MainMemory(SIZE), REGIONS, STEP_BUDGET)
    mem.install_fault_map(fmap)
    return mem, mem


def build_reference(fmap):
    cache = ref.CacheModel(GEO, ref.MainMemory(SIZE))
    cache.install_fault_map(fmap)
    return ref.SimMemory(cache, REGIONS, STEP_BUDGET), cache


def replay(mem, cache, maps, trace):
    """Run the trace; one observation per step (a value's bytes or a crash reason)."""
    seen = []
    for op in trace:
        try:
            if op[0] == "load":
                fmt = FORMATS[op[1]]
                seen.append(struct.pack(fmt, getattr(mem, "load_" + op[1])(op[2])))
            elif op[0] == "store":
                fmt = FORMATS[op[1]]
                value = struct.unpack_from(fmt, op[3])[0]
                getattr(mem, "store_" + op[1])(op[2], value)
                seen.append(None)
            elif op[0] == "charge":
                mem.charge(op[1])
                seen.append(mem.ops)
            elif op[0] == "flush":
                mem.flush()
                seen.append(None)
            else:
                cache.install_fault_map(maps[op[1]])
                seen.append(cache.fault_binding_count())
        except CrashSignal as c:
            seen.append(c.reason)
    return seen


def stuck_map(*faults):
    """A map of permanent faults given as (linear bit, kind)."""
    return FaultMap("t", 540, SRAM, tuple(
        FaultSpec(BitLocation(b // SRAM.cols, b % SRAM.cols), FaultTiming.permanent(), kind) for b, kind in faults))


NO_FAULTS = stuck_map()
SLOT0_BIT0_STUCK0 = stuck_map((0, CorruptionKind.STUCK_AT_0))        # set 0, way 0
SLOT1_BIT0_STUCK1 = stuck_map((8192, CorruptionKind.STUCK_AT_1))     # set 0, way 1
SLOT0_BIT0_FLIP = stuck_map((0, CorruptionKind.BIT_FLIP))            # a binding, not a mask


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces, maps=st.lists(fault_maps, min_size=2, max_size=2))
# installing a map flushes: the dirty line is written back as stored, and its refill takes the new map
@example(trace=[("store", "u8", 1024, bytes(8 * [255])), ("install", 1), ("load", "u8", 1024)],
         maps=[NO_FAULTS, SLOT0_BIT0_STUCK0])
# after a flush a line fills the first way of its set, whatever the old LRU order
@example(trace=[("store", "u8", 1024, bytes(8)), ("load", "u8", 2048), ("load", "u8", 1024), ("flush",),
                ("load", "u8", 1024)],
         maps=[SLOT1_BIT0_STUCK1, NO_FAULTS])
# one example per condition of the one-frame hit:
# a resident line only partly inside a region still takes the span check
@example(trace=[("store", "u8", 199, bytes(8)), ("load", "u8", 200)], maps=[NO_FAULTS, NO_FAULTS])
# a hit on a line with a flip bound flips it again
@example(trace=[("store", "u8", 1024, bytes(8)), ("install", 1), ("load", "u8", 1024), ("load", "u8", 1024)],
         maps=[NO_FAULTS, SLOT0_BIT0_FLIP])
# a flip bound to one line keeps only that line's hits, loads and stores, out of the one-frame path
@example(trace=[("store", "u8", 1024, bytes(8)), ("store", "u8", 1088, bytes(8)), ("load", "u8", 1088),
                ("store", "u8", 1024, bytes(8)), ("load", "u8", 1088), ("load", "u8", 1024)],
         maps=[SLOT0_BIT0_FLIP, NO_FAULTS])
# a store hit applies the line's stuck-at masks
@example(trace=[("load", "u8", 1024), ("store", "u8", 1024, bytes(8 * [255])), ("load", "u8", 1024)],
         maps=[SLOT0_BIT0_STUCK0, NO_FAULTS])
def test_fused_path_matches_reference_on_random_traces(trace, maps):
    runs = []
    for build in (build_fused, build_reference):
        mem, cache = build(maps[0])
        seen = replay(mem, cache, maps, trace)
        tick, count = cache.tick, cache.fault_binding_count()
        mem.flush()
        runs.append((seen, tick, count, mem.ops, bytes(cache.backing.buf)))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# whole kernels over a fixed corpus
# ---------------------------------------------------------------------------


def _mixed_map(sram_id, seed):
    """Stuck-at-0/1 and flips with all three timings, drawn from a fixed stream."""
    rng = make_rng(seed)
    bits = rng.choice(SRAM.capacity, size=12, replace=False)
    faults = []
    for i, b in enumerate(sorted(int(b) for b in bits)):
        kind = list(CorruptionKind)[i % 3]
        timing = (FaultTiming.permanent(), FaultTiming.transient(int(rng.integers(1 << 14))),
                  FaultTiming.intermittent(int(rng.integers(1 << 14)), int(rng.integers(1, 4096))))[(i // 3) % 3]
        faults.append(FaultSpec(BitLocation(b // SRAM.cols, b % SRAM.cols), timing, kind))
    return FaultMap(sram_id, 540, SRAM, tuple(faults))


PROBE = FaultMap("probe", 540, SRAM, (
    FaultSpec(BitLocation(0, 62), FaultTiming.permanent(), CorruptionKind.STUCK_AT_1),
    FaultSpec(BitLocation(64, 62), FaultTiming.permanent(), CorruptionKind.STUCK_AT_1),
))


def _corpus():
    hw = next(m for m in generate_corpus(12, CorpusParams(), 1234) if m.fault_count >= 6)
    return [hw, match_random_map(hw, substream(1234, 1, 0, 0)), _mixed_map("mix0", 5), _mixed_map("mix1", 6), PROBE]


CORPUS = _corpus()


def run_reference(cfg, fmap):
    lay = get(cfg.benchmark).LAYOUT
    lb = GEO.line_bytes
    cache = ref.CacheModel(GEO, ref.MainMemory(((lay.mem_size + lb - 1) // lb) * lb))
    cache.install_fault_map(fmap)
    mem = ref.SimMemory(cache, lay.regions, cfg.step_budget)
    return execute(cfg, mem), mem


# (benchmark, map index) -> iterations the periodic-state jump skips; the
# jacobi run then crashes on the step budget in its tail, at ops 300,032
JUMPS = {("jacobi", 1): 256, ("kmeans", 2): 44}


@pytest.mark.parametrize("map_index", range(len(CORPUS)))
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_fused_path_matches_reference_on_kernels(bench, map_index):
    fmap = CORPUS[map_index]
    cfg = WorkloadConfig(bench, step_budget=300_000)
    mem = build_memory(cfg, fault_map=fmap)
    got = execute(cfg, mem)
    want, ref_mem = run_reference(cfg, fmap)
    assert (got.crash_reason, got.data) == (want.crash_reason, want.data)
    assert (mem.ops, mem.tick) == (ref_mem.ops, ref_mem.store.tick)
    assert mem.skipped_iterations == JUMPS.get((bench, map_index), 0)


# ---------------------------------------------------------------------------
# the periodic-state jump of jacobi and kmeans against plain execution
# ---------------------------------------------------------------------------


def with_fault(fmap, bit, kind, timing):
    return FaultMap(fmap.sram_id, fmap.voltage_mv, fmap.geometry, fmap.faults + (
        FaultSpec(BitLocation(bit // SRAM.cols, bit % SRAM.cols), timing, kind),))


# CORPUS[1] makes jacobi cycle with period 4; Brent's method confirms it at
# iteration 36 (about tick 78,000), and at max_iters 83 a jump taken there
# leaves a three-iteration tail
JUMP_ITERS = {"jacobi": 83, "kmeans": 24}
# a flip that fires at iteration 46, after the cycle has started
LATE_TRANSIENT = with_fault(CORPUS[1], 1900, CorruptionKind.BIT_FLIP, FaultTiming.transient(99_070))
# a stuck-at-0 window open from tick 51,548 to 94,915, across the first repeat
OPEN_WINDOW = with_fault(CORPUS[1], 4945, CorruptionKind.STUCK_AT_0, FaultTiming.intermittent(51_548, 43_367))


def add_faults(fmap, extra):
    used = {f.location.linear(SRAM) for f in fmap.faults}
    for bit, kind, timing in extra:
        if bit not in used:
            used.add(bit)
            fmap = with_fault(fmap, bit, kind, timing)
    return fmap


# random faults of every kind and timing, alone or on top of a map that makes
# jacobi (CORPUS[1]) or kmeans (CORPUS[2]) cycle, so that many draws jump
jump_maps = st.builds(add_faults, st.sampled_from((NO_FAULTS, CORPUS[1], CORPUS[2])), st.lists(
    st.tuples(st.integers(0, SRAM.capacity - 1), st.sampled_from(list(CorruptionKind)),
              st.one_of(st.just(FaultTiming.permanent()),
                        st.builds(FaultTiming.transient, st.integers(0, 150_000)),
                        st.builds(FaultTiming.intermittent, st.integers(0, 150_000), st.integers(1, 60_000)))),
    max_size=12))


def run_both(bench, fmap, step_budget):
    cfg = WorkloadConfig(bench, step_budget=step_budget)
    mem = build_memory(cfg, fault_map=fmap)
    with mock.patch.object(get(bench), "MAX_ITERS", JUMP_ITERS[bench]):
        got = execute(cfg, mem)
        want, ref_mem = run_reference(cfg, fmap)
    assert (got.crash_reason, got.data) == (want.crash_reason, want.data)
    assert (mem.ops, mem.tick) == (ref_mem.ops, ref_mem.store.tick)
    if got.is_crash:  # not flushed, so its LRU ticks must agree too
        assert mem._lru == ref_mem.store._lru
    return mem.skipped_iterations


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bench=st.sampled_from(("jacobi", "kmeans")), fmap=jump_maps, step_budget=st.sampled_from((60_000, 10**6)))
@example(bench="jacobi", fmap=LATE_TRANSIENT, step_budget=10**6)
@example(bench="jacobi", fmap=OPEN_WINDOW, step_budget=10**6)
# the budget caps the jump at 10 periods, and the tail's first charge crashes
# (ops 77,856), so the LRU ticks are compared as the jump left them
@example(bench="jacobi", fmap=CORPUS[1], step_budget=77_824)
def test_jump_matches_plain_execution(bench, fmap, step_budget):
    run_both(bench, fmap, step_budget)


@pytest.mark.parametrize("fmap, step_budget, skipped", [
    (CORPUS[1], 10**6, 44),       # 11 periods from iteration 36 to the end
    (LATE_TRANSIENT, 10**6, 28),  # no jump until the flip has fired
    (OPEN_WINDOW, 10**6, 28),     # no jump until the window has closed
    (CORPUS[1], 77_824, 40),      # 10 periods: an 11th would pass the budget
])
def test_jump_examples_jump(fmap, step_budget, skipped):
    assert run_both("jacobi", fmap, step_budget) == skipped


def test_jump_period_includes_the_loop_carried_locals():
    # nothing but `extra` changes between boundaries, and it alternates: the period is 2, not 1
    mem = build_memory(WorkloadConfig("jacobi"))
    assert [mem.skip_periods(101, it % 2) for it in range(4)] == [0, 0, 0, 100]
    assert (mem.skipped_iterations, mem.ops, mem.tick) == (100, 0, 0)


# ---------------------------------------------------------------------------
# mc's step count, kept in a local between charges
# ---------------------------------------------------------------------------


def test_mc_step_budget_crash_counts_the_exceeding_step():
    cfg = WorkloadConfig("mc", step_budget=50_000)
    mem = build_memory(cfg)
    r = execute(cfg, mem)
    assert r.crash_reason is not None and r.crash_reason.value == "step_budget_exceeded"
    assert mem.ops == 50_001


def test_mc_walk_step_cap_crash_counts_steps_taken():
    # one charge for the point, one for the walk, then three steps; the cap
    # check comes before the fourth step is charged
    cfg = WorkloadConfig("mc")
    mem = build_memory(cfg)
    with mock.patch.object(get("mc"), "WALK_STEP_CAP", 3):
        r = execute(cfg, mem)
    assert r.crash_reason is not None and r.crash_reason.value == "step_budget_exceeded"
    assert mem.ops == 5


# ---------------------------------------------------------------------------
# robustness: only CrashSignal may leave a kernel, whatever the faults
# ---------------------------------------------------------------------------

kernel_maps = st.lists(
    st.tuples(st.integers(0, SRAM.capacity - 1), st.sampled_from(list(CorruptionKind)),
              st.one_of(st.just(FaultTiming.permanent()),
                        st.builds(FaultTiming.transient, st.integers(0, 20_000)),
                        st.builds(FaultTiming.intermittent, st.integers(0, 20_000), st.integers(1, 4096)))),
    min_size=1, max_size=24, unique_by=lambda f: f[0],
).map(lambda faults: FaultMap("h", 540, SRAM, tuple(
    FaultSpec(BitLocation(b // SRAM.cols, b % SRAM.cols), timing, kind) for b, kind, timing in faults)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bench=st.sampled_from(BENCHMARKS), fmap=kernel_maps)
@example(bench="mc", fmap=PROBE)
def test_kernels_end_as_result_under_any_faults(bench, fmap):
    result = run_workload(WorkloadConfig(bench, step_budget=20_000), fault_map=fmap)
    assert isinstance(result, WorkloadResult)


def test_reference_imports_no_private_voltfi_name():
    # the oracle copies what it needs, so it shares no access code with the fused path
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    private = [a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "voltfi"
               for a in node.names if a.name.startswith("_")]
    assert private == []
