"""Set-associative write-back cache with bit-granular fault bindings.

The cache intercepts every read/write request. Installing a fault map binds
each SRAM bit to a physical cache bit (set, way, bit offset in the line).
Every fault then takes one form, whatever its kind and timing: a byte of
the line, (AND, OR, XOR) masks for it, and the ticks [start, end) at which
it is active; a transient fault is removed once it fires. Active faults
corrupt the stored line on every access that touches it, so evictions carry
the corruption out to the backing store.

Bit numbering inside a line is little-endian: line bit b lives in byte
b // 8 at weight 1 << (b % 8).

Layout convention from SRAM linear bit index to cache bits:
line index = bit // line_bits, set = line % num_sets, way = line // num_sets.
With the 128x128 SRAM default and 16 sets x 2 ways x 64 B lines, the bottom
quarter of the SRAM (rows 96..127) maps to sets 8..15 of way 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .faultmap import CorruptionKind, FaultMap, FaultTiming, TimingMode


class CrashReason(enum.Enum):
    OUT_OF_RANGE = "out_of_range"
    STEP_BUDGET_EXCEEDED = "step_budget_exceeded"
    NON_FINITE_CONTROL = "non_finite_control"


class CrashSignal(Exception):
    """Raised when a simulated run dies (the segfault analogue)."""

    def __init__(self, reason: CrashReason):
        super().__init__(reason.value)
        self.reason = reason


@dataclass(frozen=True)
class CacheGeometry:
    num_sets: int = 16
    associativity: int = 2
    line_bytes: int = 64

    def __post_init__(self):
        if self.num_sets < 1 or self.associativity < 1 or self.line_bytes < 1:
            raise ValueError("cache geometry fields must be >= 1")

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.associativity

    @property
    def line_bits(self) -> int:
        return self.line_bytes * 8

    @property
    def capacity_bits(self) -> int:
        return self.num_lines * self.line_bits


@dataclass(frozen=True)
class CacheBitAddr:
    set: int
    way: int
    bit_in_line: int


def map_fault_to_cache(linear_bit: int, geometry: CacheGeometry) -> CacheBitAddr:
    """Map an SRAM linear bit index onto (set, way, bit_in_line)."""
    if not 0 <= linear_bit < geometry.capacity_bits:
        raise ValueError(f"bit {linear_bit} outside capacity {geometry.capacity_bits}")
    line = linear_bit // geometry.line_bits
    return CacheBitAddr(
        set=line % geometry.num_sets,
        way=line // geometry.num_sets,
        bit_in_line=linear_bit % geometry.line_bits,
    )


class MainMemory:
    """Flat, fault-free backing store."""

    def __init__(self, size: int):
        self.size = size
        self.buf = bytearray(size)

    def read(self, addr: int, n: int) -> bytes:
        return bytes(self.buf[addr:addr + n])

    def write(self, addr: int, data: bytes) -> None:
        self.buf[addr:addr + len(data)] = data


class _Binding(NamedTuple):
    """One fault bound to a cache line, in the one form every fault takes: on
    an access at a tick in [start, end) its byte becomes (byte & and_ | or_)
    ^ xor, and a `once` (transient) fault is then removed."""

    start: int
    end: float
    byte: int
    and_: int
    or_: int
    xor: int
    once: bool


def _bind(bit_in_line: int, kind: CorruptionKind, t: FaultTiming) -> _Binding:
    bit = 1 << (bit_in_line & 7)
    masks = {CorruptionKind.STUCK_AT_0: (0xFF ^ bit, 0, 0), CorruptionKind.STUCK_AT_1: (0xFF, bit, 0),
             CorruptionKind.BIT_FLIP: (0xFF, 0, bit)}[kind]
    end = t.start + t.duration if t.mode is TimingMode.INTERMITTENT else math.inf
    return _Binding(t.start, end, bit_in_line >> 3, *masks, t.mode is TimingMode.TRANSIENT)


class CacheModel:
    """Write-back, write-allocate, LRU cache over a MainMemory.

    Faults corrupt data bits only, never tags or state bits. The tick
    counter advances by one per access. Installing a fault map flushes
    first, so every map starts on a cold cache and every resident line was
    filled under the map installed.

    `_addr` holds the line address in each slot and `_slot` is its inverse,
    so a hit costs one dict lookup and `_touch` runs only on a miss. Every
    fault becomes a `_Binding`. One active at every tick with no flip part
    (a permanent stuck-at fault) folds into its slot's byte (AND, OR) masks,
    applied after each fill and each store: only those two events change a
    line's bytes, and fault bits are distinct, so re-applying the masks on
    any other access would change nothing. Every other binding stays in
    `_bindings` and applies on every access to its slot.
    `workloads.memory.SimMemory` serves hits from these arrays itself.
    """

    def __init__(self, geometry: CacheGeometry, backing):
        if backing.size % geometry.line_bytes:
            raise ValueError("backing store size must be a multiple of line_bytes")
        self.geometry = geometry
        self.backing = backing
        n = geometry.num_lines
        self._lb = geometry.line_bytes
        self._addr = [-1] * n  # slot -> line address it holds, -1 if invalid
        self._dirty = [False] * n
        self._lru = [0] * n
        self._data = [memoryview(bytearray(geometry.line_bytes)) for _ in range(n)]  # slice stores into a view are cheaper
        self._slot: dict[int, int] = {}
        self._masks = [()] * n  # slot -> ((byte, and mask, or mask), ...)
        self._n_stuck = 0
        self._bindings: dict[int, list[_Binding]] = {}
        self.tick = 0

    def install_fault_map(self, fmap: FaultMap) -> None:
        """Flush, then bind every fault of the map in place of the installed ones."""
        if fmap.geometry.capacity != self.geometry.capacity_bits:
            raise ValueError(
                f"fault map capacity {fmap.geometry.capacity} != cache capacity "
                f"{self.geometry.capacity_bits} bits"
            )
        self.flush()
        self._bindings = {}
        masks = [{} for _ in self._masks]  # slot -> byte -> (and mask, or mask)
        self._n_stuck = 0
        for f in fmap.faults:
            addr = map_fault_to_cache(f.location.linear(fmap.geometry), self.geometry)
            li = addr.set * self.geometry.associativity + addr.way
            b = _bind(addr.bit_in_line, f.kind, f.timing)
            if b.end == math.inf and not (b.once or b.xor):  # permanent stuck-at: a slot mask
                a, o = masks[li].get(b.byte, (0xFF, 0))
                masks[li][b.byte] = (a & b.and_, o | b.or_)
                self._n_stuck += 1
            else:
                self._bindings.setdefault(li, []).append(b)
        self._masks = [tuple((i, a, o) for i, (a, o) in sorted(m.items())) for m in masks]

    def fault_binding_count(self) -> int:
        return self._n_stuck + sum(len(v) for v in self._bindings.values())

    # -- access path --------------------------------------------------------

    def _touch(self, addr: int, n: int) -> int:
        """Miss path: fill the line holding [addr, addr+n) with its stuck-at
        masks applied; returns its slot."""
        if addr < 0 or addr + n > self.backing.size:
            raise CrashSignal(CrashReason.OUT_OF_RANGE)
        lb = self._lb
        la = addr // lb
        if (addr + n - 1) // lb != la:
            raise ValueError("request spans a cache line boundary")
        assoc = self.geometry.associativity
        base = (la % self.geometry.num_sets) * assoc
        # an invalid way (lru 0) first, else the LRU victim (ticks are distinct)
        li = min(range(base, base + assoc), key=self._lru.__getitem__)
        old = self._addr[li]
        if old >= 0:
            del self._slot[old]
            if self._dirty[li]:
                self.backing.write(old * lb, bytes(self._data[li]))
        buf = self._data[li]
        buf[:] = self.backing.read(la * lb, lb)
        for i, a, o in self._masks[li]:
            buf[i] = buf[i] & a | o
        self._addr[li] = la
        self._dirty[li] = False
        self._slot[la] = li
        return li

    def _apply_faults(self, li: int, tick: int) -> None:
        bl = self._bindings.get(li)
        if bl is None:
            return
        buf = self._data[li]
        fired = False
        for start, end, i, a, o, x, once in bl:
            if start <= tick < end:
                buf[i] = (buf[i] & a | o) ^ x
                fired |= once
        if fired:  # every once binding that has started fired just now
            bl = [b for b in bl if not (b.once and b.start <= tick)]
            if bl:
                self._bindings[li] = bl
            else:
                del self._bindings[li]

    def load(self, addr: int, n: int):
        """Read access; returns (line buffer, offset of addr within it)."""
        tick = self.tick + 1
        self.tick = tick
        lb = self._lb
        off = addr % lb
        li = self._slot.get(addr // lb)
        if li is None or off + n > lb:
            li = self._touch(addr, n)
        if self._bindings:
            self._apply_faults(li, tick)
        self._lru[li] = tick
        return self._data[li], off

    def store(self, addr: int, data: bytes) -> None:
        """Write access; merges payload into the stored line."""
        tick = self.tick + 1
        self.tick = tick
        n = len(data)
        lb = self._lb
        off = addr % lb
        li = self._slot.get(addr // lb)
        if li is None or off + n > lb:
            li = self._touch(addr, n)
        buf = self._data[li]
        buf[off:off + n] = data
        for i, a, o in self._masks[li]:
            buf[i] = buf[i] & a | o
        self._dirty[li] = True
        if self._bindings:
            self._apply_faults(li, tick)
        self._lru[li] = tick

    # -- periodic-state jump -------------------------------------------------

    def cycle_state(self):
        """Everything the rest of a run reads, as a value compared byte for
        byte; None while a binding can still go from firing to not or back:
        a `once` binding, or a window that has not closed.

        LRU ticks enter only as each set's rank order, which is all that
        victim choice reads; the bindings left then ignore the tick.
        """
        tick = self.tick
        for bl in self._bindings.values():
            for b in bl:
                if b.once or tick < b.end < math.inf:
                    return None
        lru = self._lru
        assoc = self.geometry.associativity
        ranks = tuple(tuple(sorted(range(base, base + assoc), key=lru.__getitem__))
                      for base in range(0, len(lru), assoc))
        return bytes(self.backing.buf), b"".join(self._data), tuple(self._addr), tuple(self._dirty), ranks

    def advance(self, since: int, dtick: int) -> None:
        """Move the clock on by dtick, as repeats of the accesses made after
        tick `since` would: each LRU tick newer than `since` moves with it."""
        self.tick += dtick
        self._lru[:] = [t + dtick if t > since else t for t in self._lru]

    def flush(self) -> None:
        """Write back all dirty lines and invalidate; idempotent."""
        lb = self._lb
        for li, la in enumerate(self._addr):
            if la >= 0 and self._dirty[li]:
                self.backing.write(la * lb, bytes(self._data[li]))
        n = self.geometry.num_lines
        self._addr, self._dirty, self._lru = [-1] * n, [False] * n, [0] * n
        self._slot.clear()
