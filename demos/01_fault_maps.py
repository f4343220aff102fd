"""Generate hardware-like and uniform-random fault maps and compare them.

Writes two PGM images next to this script: one random map and one
hardware-like map with the same number of faulty bits, like-for-like.
"""

from pathlib import Path

import numpy as np

from voltfi.faultmap import (
    FaultCountDistribution,
    FaultMap,
    SpatialParams,
    SramGeometry,
    generate_hwlike_sram,
    match_random_map,
    serialize_fault_map,
)
from voltfi.pgm import encode_pgm

out_dir = Path(__file__).parent
geometry = SramGeometry()  # 128 x 128 = 16 Kbit

# force a dense SRAM so the structure is visible (the famous 600-bit picture)
params = SpatialParams(count_dist=FaultCountDistribution.point_mass(600))
faults = generate_hwlike_sram(geometry, params, seed=2)
hw = FaultMap("demo", 540, geometry, faults)
rnd = match_random_map(hw, seed=3)

print(f"hardware-like map: {hw.fault_count} faults")
print(f"matched random map: {rnd.fault_count} faults")

for name, m in (("hw", hw), ("rnd", rnd)):
    img = np.full((geometry.rows, geometry.cols), 255, dtype=np.uint8)
    for f in m.faults:
        img[f.location.row, f.location.col] = 0  # faulty bits in black
    path = out_dir / f"fault_map_{name}.pgm"
    path.write_bytes(encode_pgm(img))
    print(f"wrote {path}")

# quantify the visual difference: clustered runs vs uniform spread (the
# contrast is starkest at the small fault counts real SRAMs mostly show)
small = FaultMap("demo16", 540,
                 geometry,
                 generate_hwlike_sram(geometry, SpatialParams(count_dist=FaultCountDistribution.point_mass(16)), seed=5))
for name, m in (("hw/600", hw), ("rnd/600", rnd),
                ("hw/16", small), ("rnd/16", match_random_map(small, seed=6))):
    locs = m.location_array()
    diff = np.abs(locs[:, None, :] - locs[None, :, :]).sum(axis=2)
    iu = np.triu_indices(len(locs), 1)
    cols, counts = np.unique(locs[:, 1], return_counts=True)
    shared = counts[counts > 1].sum() / len(locs)
    print(f"{name:8s}: mean pairwise Manhattan distance {diff[iu].mean():6.1f}, "
          f"fraction sharing a column {shared:.2f}")

# the serialized text format round-trips and is diff-friendly
text = serialize_fault_map(hw)
print("\nfirst lines of the serialized map:")
print("\n".join(text.splitlines()[:8]))
