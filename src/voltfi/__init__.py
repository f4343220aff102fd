"""voltfi: fault injection for undervolted SRAM caches.

Compares uniform-random fault injection against hardware-guided injection
(spatially clustered, voltage-monotone fault maps) by running benchmark
kernels through a bit-accurate faulty cache model and classifying the
outcomes.
"""

from .cachesim import (
    CacheBitAddr,
    CacheGeometry,
    CacheModel,
    CrashReason,
    CrashSignal,
    MainMemory,
    map_fault_to_cache,
)
from .faultmap import (
    BitLocation,
    CorpusParams,
    CorruptionKind,
    FaultCountDistribution,
    FaultMap,
    FaultMapFormatError,
    FaultSpec,
    FaultTiming,
    SpatialParams,
    SramGeometry,
    VOLTAGE_SWEEP_MV,
    derive_map_at_voltage,
    generate_corpus,
    generate_hwlike_sram,
    generate_random_map,
    match_random_map,
    parse_fault_map,
    probability_heatmap,
    serialize_fault_map,
)
from .harness import (
    AggregateReport,
    ExperimentRecord,
    Outcome,
    QualityValue,
    aggregate,
    avg_relative_error,
    classify,
    cluster_accuracy,
    golden_run,
    psnr,
    run_experiment,
)
from .workloads import BENCHMARKS, WorkloadConfig, WorkloadResult, run_workload

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
