"""Monte Carlo estimation of interior boundary values of a PDE domain.

For each point on the boundary of an inner square inside the unit square,
random walks (walk-on-spheres jumps) run out to the outer boundary and
average the boundary condition sampled there. Step directions come from a
large precomputed pool of random words consumed cyclically, so the pool
dominates the kernel's memory footprint: a fault that corrupts a pool word
merely reshuffles some walks, which the estimator absorbs like any other
random draw. The per-point walk counts sit in the low table region, so a
corrupted count drives the run into the step budget; point coordinates,
the discretized boundary condition, the pool and the estimates are bulk
data.
"""

from __future__ import annotations

import math

import numpy as np

from ..cachesim import CrashReason, CrashSignal
from ..rng import make_rng
from . import Layout, WorkloadConfig
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 13
N_POINTS = 128
WALKS_PER_POINT = 256
WALK_STEP_CAP = 100_000
EPSILON = 1e-3
SEGMENTS = 256   # outer-boundary discretization, perimeter parameter in [0, 4)
POOL_WORDS = 8192  # 64 KiB of random angle words, four 16-bit angles each
INNER_LO = 0.25
INNER_HI = 0.75

PX = DATA_BASE
PY = PX + N_POINTS * 8
G = PY + N_POINTS * 8
POOL = G + SEGMENTS * 8
OUT = POOL + POOL_WORDS * 8
LAYOUT = Layout(
    regions=(Region("tables", TAB_BASE, N_POINTS * 4), Region("data", DATA_BASE, OUT + N_POINTS * 8 - DATA_BASE)),
    output_dtype="f64",
    output_shape=(N_POINTS,),
)

_TWO_PI = 2.0 * math.pi
_ANGLE_SCALE = _TWO_PI / 65536.0


def generate_inputs(cfg: WorkloadConfig):
    side = N_POINTS // 4
    t = (np.arange(side) + 0.5) / side
    lo, hi = INNER_LO, INNER_HI
    span = hi - lo
    xs = np.concatenate([lo + span * t, np.full(side, hi), hi - span * t, np.full(side, lo)])
    ys = np.concatenate([np.full(side, lo), lo + span * t, np.full(side, hi), hi - span * t])
    rng = make_rng(cfg.seed, STREAM_TAG)
    s = np.arange(SEGMENTS) / (SEGMENTS / 4.0)
    g = np.zeros(SEGMENTS)
    for k in range(1, 4):
        amp = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, _TWO_PI)
        g += amp * np.sin(_TWO_PI * k * s / 4.0 + phase)
    g += rng.uniform(1.0, 3.0)
    pool = rng.integers(0, 1 << 64, size=POOL_WORDS, dtype=np.uint64)
    return xs, ys, g, pool


def boundary_segment(x: float, y: float) -> int:
    """Perimeter segment index of the outer-boundary point nearest (x, y)."""
    d_left = x
    d_right = 1.0 - x
    d_bottom = y
    d_top = 1.0 - y
    best = min(d_left, d_right, d_bottom, d_top)
    if best == d_bottom:
        s = x
    elif best == d_right:
        s = 1.0 + y
    elif best == d_top:
        s = 2.0 + (1.0 - x)
    else:
        s = 3.0 + (1.0 - y)
    scaled = s * (SEGMENTS / 4.0)
    if not math.isfinite(scaled):  # a finite s near the float limit can overflow here
        raise CrashSignal(CrashReason.NON_FINITE_CONTROL)
    seg = int(scaled)
    if seg < 0:
        return 0
    return seg if seg < SEGMENTS else SEGMENTS - 1


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    n, walks, px, py, g_a, pool_a = N_POINTS, WALKS_PER_POINT, PX, PY, G, POOL
    xs, ys, g, pool = generate_inputs(cfg)
    for i in range(n):
        mem.store_u32(TAB_BASE + 4 * i, walks)
    for i in range(n):
        mem.store_f64(px + 8 * i, xs[i])
        mem.store_f64(py + 8 * i, ys[i])
    for i in range(SEGMENTS):
        mem.store_f64(g_a + 8 * i, g[i])
    for i in range(POOL_WORDS):
        mem.store_u64(pool_a + 8 * i, int(pool[i]))


def run(cfg: WorkloadConfig, mem: SimMemory) -> int:
    n, px, py, g_a, pool_a, out = N_POINTS, PX, PY, G, POOL, OUT
    step_cap = WALK_STEP_CAP
    lf = mem.load_f64
    lu64 = mem.load_u64
    charge = mem.charge
    budget = mem.step_budget
    cos = math.cos
    sin = math.sin
    init(cfg, mem)
    ctr = 0       # global angle counter; four angles per pool word
    word = 0
    for i in range(n):
        charge(1)
        x0 = lf(px + 8 * i)
        y0 = lf(py + 8 * i)
        nw = mem.load_u32(TAB_BASE + 4 * i)
        acc = 0.0
        for _ in range(nw):
            charge(1)
            x = x0
            y = y0
            # steps are charged to mem.ops once the walk ends; the walk stops at the cap
            # or at what the budget has left, whichever is less
            limit = min(step_cap, budget - mem.ops)
            steps = 0
            while True:
                d = x
                if 1.0 - x < d:
                    d = 1.0 - x
                if y < d:
                    d = y
                if 1.0 - y < d:
                    d = 1.0 - y
                if d < EPSILON:
                    break
                if steps >= limit:
                    mem.ops += steps + (steps < step_cap)  # the budget counts the overrunning step, the cap does not
                    raise CrashSignal(CrashReason.STEP_BUDGET_EXCEEDED)
                steps += 1
                lane = ctr & 3
                if lane == 0:
                    word = lu64(pool_a + 8 * ((ctr >> 2) % POOL_WORDS))
                ctr += 1
                ang = ((word >> (16 * lane)) & 0xFFFF) * _ANGLE_SCALE
                x += d * cos(ang)
                y += d * sin(ang)
            mem.ops += steps
            acc += lf(g_a + 8 * boundary_segment(x, y))
        mem.store_f64(out + 8 * i, acc / nw if nw else 0.0)
    return out
