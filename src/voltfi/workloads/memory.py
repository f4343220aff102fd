"""Sandboxed address space for benchmark kernels.

A SimMemory is the L1 data cache as a kernel sees it: every data load/store
of a kernel is validated against the mapped regions and served by the
cache. Accesses that land in unmapped space raise CrashSignal(OUT_OF_RANGE),
the segfault analogue.

Index/offset tables live in a small low region; bulk data is mapped at
DATA_BASE = 0x18000, leaving a wide unmapped gap. Table entries hold
absolute byte addresses, so a stuck-at fault that clears one of the high
address bits of a table entry usually redirects the dereference into the
gap and kills the run, while faults on bulk data merely corrupt values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..cachesim import CacheGeometry, CacheModel, CrashReason, CrashSignal, MainMemory

TAB_BASE = 0x0
DATA_BASE = 0x18000


def _typed(fmt: str):
    """Class-level (load, store) methods for one little-endian struct format.

    A hit is served in the accessor's own frame when the line lies wholly
    within a region (`_lines`), is resident (`_slot`) and no flip or timed
    fault is bound to its slot (`_bindings`; an access applies only its own
    slot's bindings). Any other access takes the span
    check, skipped when its line lies within a region, and then
    `CacheModel.load`/`store`; one across a line boundary takes the split path.
    """
    codec = struct.Struct(fmt)
    size, pack, pack_into = codec.size, codec.pack, codec.pack_into
    unpack, unpack_from = codec.unpack, codec.unpack_from

    def load(self, addr: int):
        lb = self._lb
        off = addr % lb
        if off > lb - size:
            self._check(addr, size)
            return unpack(self._read_split(addr, size))[0]
        la = addr // lb
        if la not in self._lines:
            self._check(addr, size)
        else:
            li = self._slot.get(la)
            if li is not None and li not in self._bindings:
                self.tick = self._lru[li] = self.tick + 1
                return unpack_from(self._data[li], off)[0]
        buf, off = self.load(addr, size)
        return unpack_from(buf, off)[0]

    def store(self, addr: int, value) -> None:
        lb = self._lb
        off = addr % lb
        if off > lb - size:
            self._check(addr, size)
            self._write_split(addr, pack(value))
            return
        la = addr // lb
        if la not in self._lines:
            self._check(addr, size)
        else:
            li = self._slot.get(la)
            if li is not None and li not in self._bindings:
                buf = self._data[li]
                pack_into(buf, off, value)
                for i, a, o in self._masks[li]:
                    buf[i] = buf[i] & a | o
                self._dirty[li] = True
                self.tick = self._lru[li] = self.tick + 1
                return
        self.store(addr, pack(value))

    return load, store


@dataclass(frozen=True)
class Region:
    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class SimMemory(CacheModel):
    """The L1 data cache with region-validated typed access and the step budget."""

    def __init__(self, geometry: CacheGeometry, backing: MainMemory,
                 regions: tuple[Region, ...], step_budget: int):
        spans = sorted((r.base, r.end) for r in regions)
        for (b0, e0), (b1, _) in zip(spans, spans[1:]):
            if b1 < e0:
                raise ValueError("regions overlap")
        super().__init__(geometry, backing)
        lb = self._lb
        self._spans = tuple(spans)
        self._lines = frozenset(la for lo, hi in spans for la in range(-(-lo // lb), hi // lb))
        self.step_budget = step_budget
        self.ops = 0
        self.skipped_iterations = 0
        self._saved = None  # (state, ops, tick) that skip_periods compares with
        self._power = self._lam = 0

    def charge(self, n: int = 1) -> None:
        """Account primitive kernel operations against the step budget."""
        self.ops += n
        if self.ops > self.step_budget:
            raise CrashSignal(CrashReason.STEP_BUDGET_EXCEEDED)

    def skip_periods(self, left: int, extra=None) -> int:
        """Skip whole periods of a run whose full state repeats.

        A kernel calls this at each outer-iteration boundary with the number
        of iterations it may still run and its loop-carried locals as
        `extra`, and adds the returned count of skipped iterations to its
        counter. Brent's method keeps one saved state, replaced at power-of-
        two distances, and compares the current one with it byte for byte.
        On a match p iterations apart, whole periods are skipped: no more
        than `left` iterations, and no more than the step budget allows, so
        a budget crash comes at the same op in the tail that runs normally.
        """
        state = self.cycle_state()
        if state is None:
            self._saved = None
            return 0
        state = (state, extra)
        saved = self._saved
        if saved is not None:
            self._lam += 1
            if state == saved[0]:
                p, dops, tick = self._lam, self.ops - saved[1], saved[2]
                k = left // p
                if dops:
                    k = min(k, (self.step_budget - self.ops) // dops)
                if k > 0:
                    self.ops += k * dops
                    self.advance(tick, k * (self.tick - tick))
                    self.skipped_iterations += k * p
                    self._saved = None  # its ops and tick no longer lie one period back
                    return k * p
        if saved is None or self._lam == self._power:
            self._saved = (state, self.ops, self.tick)
            self._power = 2 * self._power if saved else 1
            self._lam = 0
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
            buf, off = self.load(addr, take)
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
            self.store(addr, data[pos:pos + take])
            addr += take
            pos += take

    # -- typed accessors -----------------------------------------------------

    load_f64, store_f64 = _typed("<d")
    load_u64, store_u64 = _typed("<Q")
    load_u32, store_u32 = _typed("<I")
    load_u8, store_u8 = _typed("<B")

    # -- bulk helpers ---------------------------------------------------------

    def dump(self, addr: int, n: int) -> bytes:
        """Read raw bytes from the backing store (call flush first)."""
        return self.backing.read(addr, n)
