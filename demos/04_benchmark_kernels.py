"""Run each benchmark kernel through a faulty cache and classify the result.

Every data load/store goes through the simulated cache. An empty fault map
reproduces the golden output bit-for-bit; a hardware-like map usually
yields an SDC with a measurable quality hit, or a crash when the fault
lands on one of the pointer tables.
"""

from voltfi.faultmap import FaultCountDistribution, FaultMap, SpatialParams, SramGeometry, generate_hwlike_sram
from voltfi.harness import Outcome, golden_run, run_experiment
from voltfi.workloads import BENCHMARKS, WorkloadConfig

geometry = SramGeometry()
params = SpatialParams(count_dist=FaultCountDistribution.point_mass(12))
faults = generate_hwlike_sram(geometry, params, seed=4)
fmap = FaultMap("demo", 540, geometry, faults)
print(f"injecting the same {fmap.fault_count}-fault map into every benchmark\n")

for bench in BENCHMARKS:
    cfg = WorkloadConfig(bench)
    golden = golden_run(bench, cfg)
    record = run_experiment(bench, cfg, fmap, "HW_FI", golden)
    quality = ""
    if record.outcome is Outcome.SDC:
        quality = f"  {record.quality.metric} = {record.quality.value:.4g}"
    print(f"{bench:14s} -> {record.outcome.value:7s}{quality}")

print("\ngolden outputs are deterministic and cache-transparent:")
cfg = WorkloadConfig("sobel")
again = golden_run("sobel", cfg)
print("repeated sobel golden identical:", again.data == golden_run("sobel", cfg).data)
