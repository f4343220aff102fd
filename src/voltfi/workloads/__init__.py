"""Benchmark kernels that route all data accesses through a simulated cache.

Six kernels are provided: jacobi, blackscholes, dct, mc (Monte Carlo
boundary estimation), sobel, and kmeans. Each runs at one fixed size, set
by its module constants, and each kernel module exposes

* ``LAYOUT``  - memory regions and the output's size, dtype and shape,
* ``init(config, mem)`` - stores inputs through the typed accessors,
* ``run(config, mem)``  - init, compute, and return the output's address;
  a CrashSignal propagates,

plus ``generate_inputs(config)`` with the seeded input arrays (shared with
test oracles). ``execute`` turns a run into a WorkloadResult. All kernels
keep their pointer/index tables in the low region below every bulk-data byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cachesim import CacheGeometry, CrashReason, CrashSignal, MainMemory
from .memory import Region, SimMemory

DEFAULT_STEP_BUDGET = 5_000_000


@dataclass(frozen=True)
class WorkloadConfig:
    benchmark: str
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")


@dataclass(frozen=True)
class Layout:
    regions: tuple[Region, ...]
    output_dtype: str  # "u8" | "f64"
    output_shape: tuple[int, ...]

    @property
    def mem_size(self) -> int:
        return max(r.end for r in self.regions)

    @property
    def output_bytes(self) -> int:
        return math.prod(self.output_shape) * {"u8": 1, "f64": 8}[self.output_dtype]


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
    lay = get(cfg.benchmark).LAYOUT
    geo = cache_geometry or CacheGeometry()
    lb = geo.line_bytes
    mem = SimMemory(geo, MainMemory(((lay.mem_size + lb - 1) // lb) * lb), lay.regions, cfg.step_budget)
    if fault_map is not None:
        mem.install_fault_map(fault_map)
    return mem


def execute(cfg: WorkloadConfig, mem) -> WorkloadResult:
    """Run the kernel on mem: its crash, or its flushed output lifted out of the backing store."""
    kernel = get(cfg.benchmark)
    try:
        addr = kernel.run(cfg, mem)
    except CrashSignal as c:
        return WorkloadResult(crash_reason=c.reason)
    lay = kernel.LAYOUT
    mem.flush()
    return WorkloadResult(data=mem.dump(addr, lay.output_bytes), dtype=lay.output_dtype, shape=lay.output_shape)


def run_workload(cfg: WorkloadConfig, fault_map=None,
                 cache_geometry: CacheGeometry | None = None) -> WorkloadResult:
    """Run a benchmark through a (possibly faulty) cache."""
    return execute(cfg, build_memory(cfg, fault_map=fault_map, cache_geometry=cache_geometry))
