"""The per-access model, kept as the oracle of the fused access path.

`CacheModel` scans the set on every access and applies every fault binding,
permanent stuck-at faults included, on every access that touches its line.
`SimMemory` checks every access against the region spans and decodes through
eight hand-written typed accessors, over a separate `CacheModel` or straight
over a `MainMemory`, the flat store of `run_flat`. The differential tests run
the same traces and kernels through these classes and through
`voltfi.workloads.memory.SimMemory`, and require the same values, crashes,
ticks, ops and backing-store bytes. None of this shares access code with the
path it checks.
"""

from __future__ import annotations

import struct

from voltfi.cachesim import CacheGeometry, CrashReason, CrashSignal, map_fault_to_cache
from voltfi.faultmap import CorruptionKind, FaultMap, TimingMode
from voltfi.workloads import WorkloadConfig, WorkloadResult, execute, get
from voltfi.workloads.memory import Region

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

_pack_f64 = _F64.pack
_pack_u64 = _U64.pack
_pack_u32 = _U32.pack
_unpack_f64 = _F64.unpack_from
_unpack_u64 = _U64.unpack_from
_unpack_u32 = _U32.unpack_from


class _Binding:
    """One installed fault on a cache line; mutable for transient removal."""

    __slots__ = ("byte", "mask", "kind", "mode", "start", "end", "spent")

    def __init__(self, bit_in_line: int, kind: CorruptionKind, timing):
        self.byte = bit_in_line >> 3
        self.mask = 1 << (bit_in_line & 7)
        self.kind = kind
        self.mode = timing.mode
        self.start = timing.start
        self.end = timing.start + timing.duration
        self.spent = False


class MainMemory:
    """Flat, fault-free backing store."""

    line_bytes = 0  # no line granularity

    def __init__(self, size: int):
        self.size = size
        self.buf = bytearray(size)

    def read(self, addr: int, n: int) -> bytes:
        return bytes(self.buf[addr:addr + n])

    def write(self, addr: int, data: bytes) -> None:
        self.buf[addr:addr + len(data)] = data

    def load(self, addr: int, n: int):
        if addr < 0 or addr + n > self.size:
            raise CrashSignal(CrashReason.OUT_OF_RANGE)
        return self.buf, addr

    def store(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > self.size:
            raise CrashSignal(CrashReason.OUT_OF_RANGE)
        self.buf[addr:addr + len(data)] = data

    def flush(self) -> None:
        pass


class CacheModel:
    """Write-back, write-allocate, LRU cache over a backing store.

    The backing store may be a MainMemory or another CacheModel (multi-level
    by composition). Faults corrupt data bits only, never tags or state
    bits. The tick counter advances by one per access.
    """

    def __init__(self, geometry: CacheGeometry, backing):
        if backing.size % geometry.line_bytes:
            raise ValueError("backing store size must be a multiple of line_bytes")
        self.geometry = geometry
        self.backing = backing
        n = geometry.num_lines
        self._tags = [-1] * n
        self._dirty = [False] * n
        self._lru = [0] * n
        self._data = [bytearray(geometry.line_bytes) for _ in range(n)]
        self._bindings: dict[int, list[_Binding]] = {}
        self.tick = 0

    @property
    def size(self) -> int:
        return self.backing.size

    @property
    def line_bytes(self) -> int:
        return self.geometry.line_bytes

    def install_fault_map(self, fmap: FaultMap) -> None:
        """Flush, then bind every fault of the map in place of the installed ones."""
        if fmap.geometry.capacity != self.geometry.capacity_bits:
            raise ValueError(
                f"fault map capacity {fmap.geometry.capacity} != cache capacity "
                f"{self.geometry.capacity_bits} bits"
            )
        self.flush()
        self._bindings = {}
        for f in fmap.faults:
            addr = map_fault_to_cache(f.location.linear(fmap.geometry), self.geometry)
            li = addr.set * self.geometry.associativity + addr.way
            self._bindings.setdefault(li, []).append(_Binding(addr.bit_in_line, f.kind, f.timing))

    def fault_binding_count(self) -> int:
        return sum(len(v) for v in self._bindings.values())

    # -- access path --------------------------------------------------------

    def _touch(self, addr: int, n: int) -> int:
        """Bring the line holding [addr, addr+n) resident; returns line slot."""
        if addr < 0 or addr + n > self.backing.size:
            raise CrashSignal(CrashReason.OUT_OF_RANGE)
        geo = self.geometry
        lb = geo.line_bytes
        la = addr // lb
        if (addr + n - 1) // lb != la:
            raise ValueError("request spans a cache line boundary")
        ns = geo.num_sets
        si = la % ns
        tag = la // ns
        assoc = geo.associativity
        base = si * assoc
        tags = self._tags
        for li in range(base, base + assoc):
            if tags[li] == tag:
                return li
        # miss: pick invalid way first, else LRU victim
        lru = self._lru
        victim = -1
        best = None
        for li in range(base, base + assoc):
            if tags[li] < 0:
                victim = li
                break
            if best is None or lru[li] < best:
                best = lru[li]
                victim = li
        buf = self._data[victim]
        if tags[victim] >= 0 and self._dirty[victim]:
            self.backing.write((tags[victim] * ns + si) * lb, bytes(buf))
        buf[:] = self.backing.read(la * lb, lb)
        tags[victim] = tag
        self._dirty[victim] = False
        return victim

    def _apply_faults(self, li: int, tick: int) -> None:
        bl = self._bindings.get(li)
        if bl is None:
            return
        buf = self._data[li]
        drop = False
        for b in bl:
            mode = b.mode
            if mode is TimingMode.PERMANENT:
                pass
            elif mode is TimingMode.TRANSIENT:
                if b.spent or tick < b.start:
                    continue
                b.spent = True
                drop = True
            else:  # intermittent
                if not (b.start <= tick < b.end):
                    continue
            kind = b.kind
            if kind is CorruptionKind.STUCK_AT_0:
                buf[b.byte] &= ~b.mask
            elif kind is CorruptionKind.STUCK_AT_1:
                buf[b.byte] |= b.mask
            else:
                buf[b.byte] ^= b.mask
        if drop:
            bl = [b for b in bl if not b.spent]
            if bl:
                self._bindings[li] = bl
            else:
                del self._bindings[li]

    def load(self, addr: int, n: int):
        """Read access; returns (line buffer, offset of addr within it)."""
        tick = self.tick + 1
        self.tick = tick
        li = self._touch(addr, n)
        if self._bindings:
            self._apply_faults(li, tick)
        self._lru[li] = tick
        return self._data[li], addr % self.geometry.line_bytes

    def store(self, addr: int, data: bytes) -> None:
        """Write access; merges payload into the stored line."""
        tick = self.tick + 1
        self.tick = tick
        n = len(data)
        li = self._touch(addr, n)
        off = addr % self.geometry.line_bytes
        self._data[li][off:off + n] = data
        self._dirty[li] = True
        if self._bindings:
            self._apply_faults(li, tick)
        self._lru[li] = tick

    # -- store protocol for composition -------------------------------------

    def read(self, addr: int, n: int) -> bytes:
        buf, off = self.load(addr, n)
        return bytes(buf[off:off + n])

    def write(self, addr: int, data: bytes) -> None:
        self.store(addr, data)

    def flush(self) -> None:
        """Write back all dirty lines and invalidate; idempotent."""
        geo = self.geometry
        ns = geo.num_sets
        lb = geo.line_bytes
        assoc = geo.associativity
        for li in range(geo.num_lines):
            if self._tags[li] >= 0 and self._dirty[li]:
                si = li // assoc
                self.backing.write((self._tags[li] * ns + si) * lb, bytes(self._data[li]))
            self._tags[li] = -1
            self._dirty[li] = False
        self.backing.flush()


class SimMemory:
    """Region-validated typed access to a store, plus the step budget."""

    def __init__(self, store, regions: tuple[Region, ...], step_budget: int):
        if step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        spans = sorted((r.base, r.end) for r in regions)
        for (b0, e0), (b1, _) in zip(spans, spans[1:]):
            if b1 < e0:
                raise ValueError("regions overlap")
        self.store = store
        self.regions = {r.name: r for r in regions}
        self._spans = tuple(spans)
        self._lb = store.line_bytes
        self._load = store.load
        self._store = store.store
        self.step_budget = step_budget
        self.ops = 0

    def charge(self, n: int = 1) -> None:
        """Account primitive kernel operations against the step budget."""
        self.ops += n
        if self.ops > self.step_budget:
            raise CrashSignal(CrashReason.STEP_BUDGET_EXCEEDED)

    def skip_periods(self, left: int, extra=None) -> int:  # never jumps: runs every iteration
        return 0

    def _check(self, addr: int, n: int) -> None:
        for lo, hi in self._spans:
            if lo <= addr and addr + n <= hi:
                return
        raise CrashSignal(CrashReason.OUT_OF_RANGE)

    # -- split helpers for line-crossing (misaligned pointer) accesses ------

    def _read_split(self, addr: int, n: int) -> bytes:
        lb = self._lb
        out = bytearray()
        while n:
            take = min(n, lb - addr % lb)
            buf, off = self._load(addr, take)
            out += buf[off:off + take]
            addr += take
            n -= take
        return bytes(out)

    def _write_split(self, addr: int, data: bytes) -> None:
        lb = self._lb
        pos = 0
        n = len(data)
        while pos < n:
            take = min(n - pos, lb - addr % lb)
            self._store(addr, data[pos:pos + take])
            addr += take
            pos += take

    # -- typed accessors -----------------------------------------------------

    def load_f64(self, addr: int) -> float:
        self._check(addr, 8)
        lb = self._lb
        if lb and addr % lb > lb - 8:
            return _F64.unpack(self._read_split(addr, 8))[0]
        buf, off = self._load(addr, 8)
        return _unpack_f64(buf, off)[0]

    def store_f64(self, addr: int, value: float) -> None:
        self._check(addr, 8)
        lb = self._lb
        data = _pack_f64(value)
        if lb and addr % lb > lb - 8:
            self._write_split(addr, data)
        else:
            self._store(addr, data)

    def load_u64(self, addr: int) -> int:
        self._check(addr, 8)
        lb = self._lb
        if lb and addr % lb > lb - 8:
            return _U64.unpack(self._read_split(addr, 8))[0]
        buf, off = self._load(addr, 8)
        return _unpack_u64(buf, off)[0]

    def store_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        lb = self._lb
        data = _pack_u64(value)
        if lb and addr % lb > lb - 8:
            self._write_split(addr, data)
        else:
            self._store(addr, data)

    def load_u32(self, addr: int) -> int:
        self._check(addr, 4)
        lb = self._lb
        if lb and addr % lb > lb - 4:
            return _U32.unpack(self._read_split(addr, 4))[0]
        buf, off = self._load(addr, 4)
        return _unpack_u32(buf, off)[0]

    def store_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        lb = self._lb
        data = _pack_u32(value)
        if lb and addr % lb > lb - 4:
            self._write_split(addr, data)
        else:
            self._store(addr, data)

    def load_u8(self, addr: int) -> int:
        self._check(addr, 1)
        buf, off = self._load(addr, 1)
        return buf[off]

    def store_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._store(addr, bytes((value,)))

    def flush(self) -> None:
        self.store.flush()

    def dump(self, addr: int, n: int) -> bytes:
        """Read raw bytes from the root backing store (call flush first)."""
        root = self.store
        while hasattr(root, "backing"):
            root = root.backing
        return root.read(addr, n)


def run_flat(cfg: WorkloadConfig) -> WorkloadResult:
    """Reference run against a flat store with no cache in the path."""
    lay = get(cfg.benchmark).LAYOUT
    mem = SimMemory(MainMemory(lay.mem_size), lay.regions, cfg.step_budget)
    return execute(cfg, mem)
