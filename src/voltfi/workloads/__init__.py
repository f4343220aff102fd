"""Benchmark kernels that route all data accesses through a simulated cache.

Six kernels are provided: jacobi, blackscholes, dct, mc (Monte Carlo
boundary estimation), sobel, and kmeans. Each kernel module exposes

* ``layout(config)``  - memory regions and output location,
* ``init(config, mem)`` - writes inputs through the access path,
* ``run(config, mem)``  - full run returning a WorkloadResult,

plus ``generate_inputs(config)`` with the seeded input arrays (shared with
test oracles). All kernels keep their pointer/index tables in the low
region below every bulk-data byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..cachesim import CacheGeometry, CrashReason, MainMemory
from .memory import Region, SimMemory

DEFAULT_STEP_BUDGET = 5_000_000


@dataclass(frozen=True)
class WorkloadConfig:
    benchmark: str
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")

    def param(self, name: str, default):
        return self.params.get(name, default)


@dataclass(frozen=True)
class Layout:
    regions: tuple[Region, ...]
    mem_size: int
    output_addr: int
    output_bytes: int
    output_dtype: str  # "u8" | "f64"
    output_shape: tuple[int, ...]


@dataclass(frozen=True)
class WorkloadResult:
    """Either an output buffer (with a typed view) or a crash reason."""

    crash_reason: CrashReason | None = None
    data: bytes | None = None
    dtype: str = ""
    shape: tuple[int, ...] = ()

    @property
    def is_crash(self) -> bool:
        return self.crash_reason is not None

    def as_array(self) -> np.ndarray:
        if self.data is None:
            raise ValueError("crash result has no output")
        np_dtype = {"u8": np.uint8, "f64": "<f8"}[self.dtype]
        return np.frombuffer(self.data, dtype=np_dtype).reshape(self.shape)

    @classmethod
    def crash(cls, reason: CrashReason) -> "WorkloadResult":
        return cls(crash_reason=reason)


def finish(mem: SimMemory, lay: Layout) -> WorkloadResult:
    """Flush the cache and lift the output buffer out of the backing store."""
    mem.flush()
    data = mem.dump(lay.output_addr, lay.output_bytes)
    return WorkloadResult(data=data, dtype=lay.output_dtype, shape=lay.output_shape)


from . import blackscholes, dct, jacobi, kmeans, mc, sobel  # noqa: E402

_MODULES = {
    "jacobi": jacobi,
    "blackscholes": blackscholes,
    "dct": dct,
    "mc": mc,
    "sobel": sobel,
    "kmeans": kmeans,
}

BENCHMARKS = tuple(_MODULES)


def get(benchmark: str):
    try:
        return _MODULES[benchmark]
    except KeyError:
        raise KeyError(f"unknown benchmark {benchmark!r}; known: {', '.join(BENCHMARKS)}") from None


def build_memory(cfg: WorkloadConfig, fault_map=None,
                 cache_geometry: CacheGeometry | None = None) -> SimMemory:
    """The L1 cache of one run over a backing store that holds its layout."""
    lay = get(cfg.benchmark).layout(cfg)
    geo = cache_geometry or CacheGeometry()
    lb = geo.line_bytes
    mem = SimMemory(geo, MainMemory(((lay.mem_size + lb - 1) // lb) * lb), lay.regions, cfg.step_budget)
    if fault_map is not None:
        mem.install_fault_map(fault_map)
    return mem


def run_workload(cfg: WorkloadConfig, fault_map=None,
                 cache_geometry: CacheGeometry | None = None) -> WorkloadResult:
    """Run a benchmark through a (possibly faulty) cache."""
    mem = build_memory(cfg, fault_map=fault_map, cache_geometry=cache_geometry)
    return get(cfg.benchmark).run(cfg, mem)
