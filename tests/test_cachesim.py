import numpy as np
import pytest

from voltfi.cachesim import (
    CacheBitAddr,
    CacheGeometry,
    CacheModel,
    CrashReason,
    CrashSignal,
    MainMemory,
    map_fault_to_cache,
)
from voltfi.faultmap import (
    BitLocation,
    CorruptionKind,
    FaultCountDistribution,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SramGeometry,
    derive_map_at_voltage,
    generate_hwlike_sram,
    SpatialParams,
)
from voltfi.rng import make_rng

GEO = CacheGeometry()  # 16 sets x 2 ways x 64 B = 16384 bits
SRAM = SramGeometry()


def make_cache(size=1 << 17):
    mem = MainMemory(size)
    return CacheModel(GEO, mem), mem


def fault_map(entries):
    """entries: list of (linear_bit, kind, timing)"""
    faults = tuple(
        FaultSpec(BitLocation(lb // SRAM.cols, lb % SRAM.cols), timing, kind)
        for lb, kind, timing in entries
    )
    return FaultMap("t", 540, SRAM, faults)


def linear_for(set_i, way, bit_in_line):
    return (way * GEO.num_sets + set_i) * GEO.line_bits + bit_in_line


# ---------------------------------------------------------------------------
# bit mapping
# ---------------------------------------------------------------------------


def test_map_fault_to_cache_examples():
    assert map_fault_to_cache(0, GEO) == CacheBitAddr(0, 0, 0)
    assert map_fault_to_cache(512, GEO) == CacheBitAddr(1, 0, 0)
    assert map_fault_to_cache(16383, GEO) == CacheBitAddr(15, 1, 511)


def test_map_fault_to_cache_is_bijective():
    seen = set()
    for lb in range(GEO.capacity_bits):
        a = map_fault_to_cache(lb, GEO)
        assert 0 <= a.set < 16 and 0 <= a.way < 2 and 0 <= a.bit_in_line < 512
        seen.add((a.set, a.way, a.bit_in_line))
    assert len(seen) == GEO.capacity_bits


def test_map_fault_to_cache_range_errors():
    with pytest.raises(ValueError):
        map_fault_to_cache(-1, GEO)
    with pytest.raises(ValueError):
        map_fault_to_cache(GEO.capacity_bits, GEO)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def test_install_counts_and_replacement():
    cache, _ = make_cache()
    cache.install_fault_map(fault_map([]))
    assert cache.fault_binding_count() == 0
    a = fault_map([(i, CorruptionKind.STUCK_AT_0, FaultTiming.permanent()) for i in (0, 700, 8000, 16383)])
    cache.install_fault_map(a)
    assert cache.fault_binding_count() == 4
    b = fault_map([(5, CorruptionKind.STUCK_AT_1, FaultTiming.permanent())])
    cache.install_fault_map(b)
    assert cache.fault_binding_count() == 1


def test_install_geometry_mismatch():
    cache, _ = make_cache()
    small = FaultMap("t", 540, SramGeometry(64, 64))
    with pytest.raises(ValueError):
        cache.install_fault_map(small)


# ---------------------------------------------------------------------------
# access semantics
# ---------------------------------------------------------------------------


def test_write_then_read_with_stuck0_bit3():
    # bit 3 of the first byte of line (set 0, way 0)
    cache, _ = make_cache()
    cache.install_fault_map(fault_map([(3, CorruptionKind.STUCK_AT_0, FaultTiming.permanent())]))
    cache.store(0, b"\xff")
    buf, off = cache.load(0, 1)
    assert buf[off] == 0xF7


def test_stuck0_masked_when_bit_already_zero():
    cache, _ = make_cache()
    cache.install_fault_map(fault_map([(3, CorruptionKind.STUCK_AT_0, FaultTiming.permanent())]))
    cache.store(0, b"\xf7")
    buf, off = cache.load(0, 1)
    assert buf[off] == 0xF7


def test_stuck1_forces_bit():
    cache, _ = make_cache()
    cache.install_fault_map(fault_map([(0, CorruptionKind.STUCK_AT_1, FaultTiming.permanent())]))
    cache.store(0, b"\x00")
    buf, off = cache.load(0, 1)
    assert buf[off] == 0x01


def test_permanent_stuck0_persists_across_rewrites():
    cache, _ = make_cache()
    cache.install_fault_map(fault_map([(7, CorruptionKind.STUCK_AT_0, FaultTiming.permanent())]))
    for value in (0xFF, 0x80, 0xAA, 0xC3):
        cache.store(0, bytes([value]))
        buf, off = cache.load(0, 1)
        assert buf[off] & 0x80 == 0


def test_transparent_with_zero_bindings():
    cache, _ = make_cache()
    rng = make_rng(1)
    for _ in range(500):
        addr = int(rng.integers(0, (1 << 17) - 8))
        data = rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()
        n = min(8, 64 - addr % 64)
        cache.store(addr, data[:n])
        buf, off = cache.load(addr, n)
        assert bytes(buf[off:off + n]) == data[:n]


def test_transient_bitflip_fires_once_then_removed():
    cache, _ = make_cache()
    cache.install_fault_map(fault_map([(0, CorruptionKind.BIT_FLIP, FaultTiming.transient(5))]))
    cache.store(0, b"\x00")            # tick 1: before fire_tick, no flip
    buf, off = cache.load(0, 1)        # tick 2
    assert buf[off] == 0x00
    cache.load(512, 1)                 # tick 3: other line
    cache.load(1024, 1)                # tick 4
    buf, off = cache.load(0, 1)        # tick 5: fires exactly here
    assert buf[off] == 0x01
    assert cache.fault_binding_count() == 0
    cache.store(0, b"\x10")            # tick 6: rewrite
    buf, off = cache.load(0, 1)        # tick 7: no further corruption
    assert buf[off] == 0x10


def test_intermittent_window():
    cache, _ = make_cache()
    cache.install_fault_map(
        fault_map([(0, CorruptionKind.STUCK_AT_1, FaultTiming.intermittent(3, 2))])
    )
    cache.store(0, b"\x00")            # tick 1: inactive
    buf, off = cache.load(0, 1)        # tick 2: inactive
    assert buf[off] == 0x00
    buf, off = cache.load(0, 1)        # tick 3: active window [3, 5)
    assert buf[off] == 0x01
    cache.store(0, b"\x00")            # tick 4: active, forced back to 1
    buf, off = cache.load(0, 1)        # tick 5: window closed
    assert buf[off] == 0x01            # stored value still carries the forced bit
    cache.store(0, b"\x00")            # tick 6: overwrite after window
    buf, off = cache.load(0, 1)
    assert buf[off] == 0x00


# ---------------------------------------------------------------------------
# the state compared by the periodic-state jump
# ---------------------------------------------------------------------------


def state_after(*ops, fmap=None):
    """cycle_state() of a fresh cache after ("load"|"store"|"zero"|"install", addr)
    steps; "store" writes a byte 1, "zero" a byte 0."""
    cache, _ = make_cache()
    for op, addr in ops:
        if op == "load":
            cache.load(addr, 1)
        elif op == "install":
            cache.install_fault_map(fmap or fault_map([]))
        else:
            cache.store(addr, b"\x01" if op == "store" else b"\x00")
    return cache.cycle_state()


A, B, C = 0, 16 * 64, 32 * 64  # three lines of set 0 (two ways)


def test_cycle_state_sees_each_sets_lru_order_not_its_ticks():
    assert state_after(("load", A), ("load", B)) == state_after(("load", A), ("load", A), ("load", B))
    assert state_after(("load", A), ("load", B)) != state_after(("load", A), ("load", B), ("load", A))


def test_cycle_state_sees_tags_data_dirty_bits_and_backing_store():
    base = state_after(("load", A), ("load", B))
    assert state_after(("load", A), ("load", C)) != base                  # a tag
    assert state_after(("zero", A), ("load", B)) != base                  # a dirty bit
    assert state_after(("store", A), ("load", B)) != state_after(("store", A + 1), ("load", B))  # line bytes
    assert state_after(("load", A), ("load", B), ("install", 0)) != base  # an install flushes: no line is valid
    # only the backing store differs: A is evicted and refilled, its stuck-at-1
    # bit set again on the fill, once after a write-back of that bit and once not
    stuck1 = fault_map([(0, CorruptionKind.STUCK_AT_1, FaultTiming.permanent())])
    tail = (("load", B), ("load", C), ("load", B), ("load", A))
    assert state_after(("install", 0), ("store", A), *tail, fmap=stuck1) != \
        state_after(("install", 0), ("load", A), *tail, fmap=stuck1)


def test_cycle_state_waits_for_timed_faults_and_needs_main_memory():
    transient = fault_map([(0, CorruptionKind.BIT_FLIP, FaultTiming.transient(2))])  # on line A's slot
    assert state_after(("install", 0), ("load", 64), fmap=transient) is None
    assert state_after(("install", 0), ("load", 64), ("load", A), fmap=transient) is not None  # fired at tick 2
    window = fault_map([(0, CorruptionKind.STUCK_AT_1, FaultTiming.intermittent(1, 3))])  # end_tick 4
    assert state_after(("install", 0), *3 * [("load", 64)], fmap=window) is None
    assert state_after(("install", 0), *4 * [("load", 64)], fmap=window) is not None


def test_tick_increments_per_access():
    cache, _ = make_cache()
    assert cache.tick == 0
    cache.store(0, b"\x00")
    cache.load(0, 1)
    cache.load(4096, 1)
    assert cache.tick == 3


def test_out_of_range_access_raises_crash():
    cache, _ = make_cache()
    with pytest.raises(CrashSignal) as e:
        cache.load(1 << 17, 1)
    assert e.value.reason is CrashReason.OUT_OF_RANGE
    with pytest.raises(CrashSignal):
        cache.store((1 << 17) - 4, b"\x00" * 8)


def test_request_spanning_lines_rejected():
    cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.load(60, 8)


# ---------------------------------------------------------------------------
# eviction, write-back, flush
# ---------------------------------------------------------------------------


def test_flush_clean_cache_leaves_memory_untouched():
    cache, mem = make_cache()
    snapshot = bytes(mem.buf)
    cache.load(0, 8)
    cache.flush()
    assert bytes(mem.buf) == snapshot


def test_flush_carries_corruption_and_is_idempotent():
    cache, mem = make_cache()
    cache.install_fault_map(fault_map([(0, CorruptionKind.STUCK_AT_1, FaultTiming.permanent())]))
    cache.store(0, b"\x00")
    assert mem.buf[0] == 0  # not yet written back
    cache.flush()
    assert mem.buf[0] == 0x01
    snapshot = bytes(mem.buf)
    cache.flush()
    assert bytes(mem.buf) == snapshot


def test_install_over_a_dirty_resident_line_writes_it_back_first():
    cache, mem = make_cache()
    cache.store(0, b"\xff")  # line 0 -> set 0 way 0, dirty
    assert mem.buf[0] == 0
    cache.install_fault_map(fault_map([(0, CorruptionKind.STUCK_AT_0, FaultTiming.permanent())]))
    assert mem.buf[0] == 0xFF  # written back as stored, before the new map binds
    assert cache._addr == [-1] * GEO.num_lines
    buf, off = cache.load(0, 1)  # a refill, under the new map
    assert buf[off] == 0xFE
    assert cache.tick == 2


def test_dirty_eviction_writes_back_corrupted_line():
    cache, mem = make_cache()
    cache.install_fault_map(fault_map([(0, CorruptionKind.STUCK_AT_1, FaultTiming.permanent())]))
    cache.store(0, b"\x00")  # line 0 -> set 0 way 0, corrupted in cache
    # two more lines mapping to set 0 evict the dirty victim
    cache.load(1024, 1)
    cache.load(2048, 1)
    assert mem.buf[0] == 0x01


def test_lru_replacement_order():
    cache, _ = make_cache()
    cache.load(0, 1)        # set 0, way 0
    cache.load(1024, 1)     # set 0, way 1
    cache.load(0, 1)        # touch first again; LRU is now the 1024 line
    cache.load(2048, 1)     # evicts 1024
    assert {cache._addr[0], cache._addr[1]} == {0, 2048 // 64}


# ---------------------------------------------------------------------------
# transparency and inclusion oracles
# ---------------------------------------------------------------------------


def random_trace(rng, size, n):
    ops = []
    for _ in range(n):
        addr = int(rng.integers(0, size))
        max_len = min(8, size - addr, 64 - addr % 64)
        length = int(rng.integers(1, max_len + 1))
        if rng.random() < 0.5:
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            ops.append(("w", addr, data))
        else:
            ops.append(("r", addr, length))
    return ops


def run_trace_observed(stack_factory, ops):
    """Returns the list of read results for the access trace."""
    store = stack_factory()
    out = []
    for op in ops:
        if op[0] == "w":
            store.store(op[1], op[2])
        else:
            buf, off = store.load(op[1], op[2])
            out.append(bytes(buf[off:off + op[2]]))
    return out, store


class FlatModel:
    def __init__(self, size):
        self.buf = bytearray(size)

    def store(self, addr, data):
        self.buf[addr:addr + len(data)] = data

    def load(self, addr, n):
        return self.buf, addr


def test_transparency_randomized_trace():
    size = 1 << 16
    ops = random_trace(make_rng(99), size, 20_000)
    got, cache = run_trace_observed(lambda: CacheModel(GEO, MainMemory(size)), ops)
    want, _ = run_trace_observed(lambda: FlatModel(size), ops)
    assert got == want


def test_inclusion_propagation_of_corrupted_bytes():
    # same trace, same SRAM: bytes observed corrupted at 600 mV are a subset
    # of those at 540 mV (stuck-at-0 maps grow as voltage drops)
    size = 1 << 16
    params = SpatialParams(count_dist=FaultCountDistribution.point_mass(24))
    sram_faults = generate_hwlike_sram(SRAM, params, 5)
    ops = random_trace(make_rng(13), size, 20_000)
    want, _ = run_trace_observed(lambda: FlatModel(size), ops)

    def corrupted_positions(voltage):
        fmap = derive_map_at_voltage(sram_faults, voltage, SRAM, "s")

        def stack():
            c = CacheModel(GEO, MainMemory(size))
            c.install_fault_map(fmap)
            return c

        got, _ = run_trace_observed(stack, ops)
        bad = set()
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                bad.add(i)
        return bad

    assert corrupted_positions(600) <= corrupted_positions(540)
