"""Voltage sweep: fault maps grow monotonically as the supply voltage drops.

Each generated SRAM carries per-bit onset voltages; deriving the map at any
voltage of the 540..600 mV sweep keeps the inclusion property: every bit
faulty at some voltage is faulty at all lower voltages.
"""

from voltfi.faultmap import (
    VOLTAGE_SWEEP_MV,
    FaultCountDistribution,
    SpatialParams,
    SramGeometry,
    derive_map_at_voltage,
    generate_hwlike_sram,
    probability_heatmap,
)

geometry = SramGeometry()
params = SpatialParams(count_dist=FaultCountDistribution.point_mass(24))

faults = generate_hwlike_sram(geometry, params, seed=9)
print("voltage sweep for one SRAM (24 faults at the lowest voltage):")
prev = None
for v in VOLTAGE_SWEEP_MV:
    m = derive_map_at_voltage(faults, v, geometry, "demo")
    contained = "" if prev is None else f"  subset of {prev[0]} mV map: {set(m.faults) <= prev[1]}"
    print(f"  {v} mV: {m.fault_count:3d} faults{contained}")
    prev = (v, set(m.faults))

# the per-bit probability heatmap over many SRAMs is bottom-heavy
corpus = []
for s in range(300):
    f = generate_hwlike_sram(geometry, SpatialParams(), s)
    corpus.append(derive_map_at_voltage(f, 540, geometry, f"s{s}"))
heat = probability_heatmap(corpus)
rows = heat.mean(axis=1)
print("\nrow-band fault probability over 300 SRAMs (higher rows = higher addresses):")
for band in range(4):
    lo, hi = band * 32, band * 32 + 32
    print(f"  rows {lo:3d}-{hi - 1:3d}: {rows[lo:hi].mean():.5f}")
print("bottom quartile vs top quartile ratio:",
      round(rows[96:].mean() / max(rows[:32].mean(), 1e-12), 1))
