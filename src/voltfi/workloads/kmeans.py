"""Lloyd k-means over seeded 2-D Gaussian blobs.

Point-chunk pointers and centroid pointers sit in the table region. The
per-point cluster assignment (one byte each) is both the output buffer and
live state: the update phase indexes the accumulator arrays through the
assignment value, so an assignment corrupted beyond k walks off the mapped
data region and crashes the run.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import make_rng
from . import Layout, WorkloadConfig
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 15
N_POINTS = 512
K = 4
MAX_ITERS = 50
CHUNK = 16
POINT_BYTES = 16  # two f64 coordinates

BLOB_CENTERS = ((-4.0, -4.0), (4.0, -4.0), (-4.0, 4.0), (4.0, 4.0))
BLOB_SIGMA = 0.8


PTS = DATA_BASE
CENTS = PTS + N_POINTS * POINT_BYTES
ASG = CENTS + K * POINT_BYTES
# pad the accumulators to the next 1 KiB boundary: they are high-leverage
# state and belong in the low cache sets with the other control data
SUMS = DATA_BASE + ((ASG + N_POINTS - DATA_BASE + 1023) // 1024) * 1024
COUNTS = SUMS + K * 16
CENT_TAB = TAB_BASE + (N_POINTS // CHUNK) * 8
LAYOUT = Layout(
    regions=(Region("tables", TAB_BASE, CENT_TAB + K * 8 - TAB_BASE),
             Region("data", DATA_BASE, COUNTS + K * 8 - DATA_BASE)),
    output_dtype="u8",
    output_shape=(N_POINTS,),
)


def generate_inputs(cfg: WorkloadConfig):
    n, k = N_POINTS, K
    rng = make_rng(cfg.seed, STREAM_TAG)
    per = n // len(BLOB_CENTERS)
    pts = []
    for cx, cy in BLOB_CENTERS:
        pts.append(rng.normal((cx, cy), BLOB_SIGMA, size=(per, 2)))
    pts = np.concatenate(pts)[:n]
    # deterministic init: one seed point per blob stretch
    init_idx = [min(i * (n // k), n - 1) for i in range(k)]
    return pts, pts[init_idx].copy()


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    n, k, pts_a, cents_a, asg, cent_tab = N_POINTS, K, PTS, CENTS, ASG, CENT_TAB
    pts, cents = generate_inputs(cfg)
    for c in range(n // CHUNK):
        mem.store_u64(TAB_BASE + 8 * c, pts_a + c * CHUNK * POINT_BYTES)
    for c in range(k):
        mem.store_u64(cent_tab + 8 * c, cents_a + c * POINT_BYTES)
    for i in range(n):
        mem.store_f64(pts_a + i * POINT_BYTES, pts[i, 0])
        mem.store_f64(pts_a + i * POINT_BYTES + 8, pts[i, 1])
    for c in range(k):
        mem.store_f64(cents_a + c * POINT_BYTES, cents[c, 0])
        mem.store_f64(cents_a + c * POINT_BYTES + 8, cents[c, 1])
    for i in range(n):
        mem.store_u8(asg + i, 255)


def run(cfg: WorkloadConfig, mem: SimMemory) -> int:
    n, k, asg, sums, counts, cent_tab = N_POINTS, K, ASG, SUMS, COUNTS, CENT_TAB
    max_iters = MAX_ITERS
    lf = mem.load_f64
    sf = mem.store_f64
    lp = mem.load_u64
    inf = math.inf
    init(cfg, mem)
    it = 0
    while it < max_iters:
        changed = 0
        for i in range(n):
            mem.charge(k)
            pa = lp(TAB_BASE + 8 * (i // CHUNK)) + (i % CHUNK) * POINT_BYTES
            x = lf(pa)
            y = lf(pa + 8)
            best = 0
            bestd = inf
            for c in range(k):
                ca = lp(cent_tab + 8 * c)
                dx = x - lf(ca)
                dy = y - lf(ca + 8)
                d = dx * dx + dy * dy
                if d < bestd:
                    bestd = d
                    best = c
            if mem.load_u8(asg + i) != best:
                changed += 1
            mem.store_u8(asg + i, best)
        for c in range(k):
            sf(sums + 16 * c, 0.0)
            sf(sums + 16 * c + 8, 0.0)
            sf(counts + 8 * c, 0.0)
        for i in range(n):
            mem.charge(1)
            a = mem.load_u8(asg + i)
            pa = lp(TAB_BASE + 8 * (i // CHUNK)) + (i % CHUNK) * POINT_BYTES
            sa = sums + 16 * a
            ca = counts + 8 * a
            sf(sa, lf(sa) + lf(pa))
            sf(sa + 8, lf(sa + 8) + lf(pa + 8))
            sf(ca, lf(ca) + 1.0)
        for c in range(k):
            cnt = lf(counts + 8 * c)
            if cnt > 0.0:
                ca = lp(cent_tab + 8 * c)
                sf(ca, lf(sums + 16 * c) / cnt)
                sf(ca + 8, lf(sums + 16 * c + 8) / cnt)
        if changed == 0:
            break
        it += 1
        it += mem.skip_periods(max_iters - it)
    return asg
