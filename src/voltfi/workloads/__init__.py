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

from ..cachesim import CacheGeometry, CacheModel, CrashReason, MainMemory
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


def build_memory(cfg: WorkloadConfig, store=None, fault_map=None,
                 cache_geometry: CacheGeometry | None = None) -> SimMemory:
    """Assemble the memory stack for one run: backing store, cache, regions."""
    lay = get(cfg.benchmark).layout(cfg)
    if store is None:
        geo = cache_geometry or CacheGeometry()
        lb = geo.line_bytes
        backing = MainMemory(((lay.mem_size + lb - 1) // lb) * lb)
        cache = CacheModel(geo, backing)
        if fault_map is not None:
            cache.install_fault_map(fault_map)
        store = cache
    return SimMemory(store, lay.regions, cfg.step_budget)


def run_workload(cfg: WorkloadConfig, fault_map=None,
                 cache_geometry: CacheGeometry | None = None) -> WorkloadResult:
    """Run a benchmark through a (possibly faulty) cache."""
    mem = build_memory(cfg, fault_map=fault_map, cache_geometry=cache_geometry)
    return get(cfg.benchmark).run(cfg, mem)


def run_flat(cfg: WorkloadConfig) -> WorkloadResult:
    """Reference run against a flat store with no cache in the path."""
    lay = get(cfg.benchmark).layout(cfg)
    mem = SimMemory(MainMemory(lay.mem_size), lay.regions, cfg.step_budget)
    return get(cfg.benchmark).run(cfg, mem)


def save_result(result: WorkloadResult, basepath) -> None:
    """Write an output buffer as flat binary plus a small text descriptor."""
    from pathlib import Path

    if result.is_crash:
        raise ValueError("crash results have no output buffer")
    base = Path(basepath)
    base.with_suffix(".bin").write_bytes(result.data)
    desc = f"dtype={result.dtype}\nshape={','.join(str(d) for d in result.shape)}\n"
    base.with_suffix(".desc").write_bytes(desc.encode("ascii"))


def load_result(basepath) -> WorkloadResult:
    """Read back a buffer written by save_result."""
    from pathlib import Path

    base = Path(basepath)
    data = base.with_suffix(".bin").read_bytes()
    fields = dict(
        line.split("=", 1)
        for line in base.with_suffix(".desc").read_text(encoding="ascii").splitlines()
    )
    shape = tuple(int(d) for d in fields["shape"].split(",") if d)
    return WorkloadResult(data=data, dtype=fields["dtype"], shape=shape)


def result_to_pgm(result: WorkloadResult) -> bytes:
    """Render a 2-D u8 output buffer (dct/sobel images) as binary PGM."""
    from ..pgm import encode_pgm

    arr = result.as_array()
    if arr.ndim != 2 or result.dtype != "u8":
        raise ValueError("only 2-D u8 outputs render as PGM")
    return encode_pgm(arr)
