"""voltfi: fault injection for undervolted SRAM caches.

Compares uniform-random fault injection against hardware-guided injection
(spatially clustered, voltage-monotone fault maps) by running benchmark
kernels through a bit-accurate faulty cache model and classifying the
outcomes.

Only the names the demos import are re-exported here; everything else is
imported from its module.
"""

from .cachesim import CacheGeometry, CacheModel, MainMemory, map_fault_to_cache
from .faultmap import (
    BitLocation,
    CorruptionKind,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SpatialParams,
    SramGeometry,
    VOLTAGE_SWEEP_MV,
    derive_map_at_voltage,
    generate_hwlike_sram,
    match_random_map,
    probability_heatmap,
    serialize_fault_map,
)
from .harness import Outcome, classify, golden_run, run_experiment
from .workloads import WorkloadConfig

__version__ = "0.1.0"
