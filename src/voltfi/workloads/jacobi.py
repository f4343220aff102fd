"""Jacobi iteration on a diagonally dominant linear system.

Row pointers live in the low table region; the matrix, right-hand side and
the two solution buffers are bulk data. Rows are scaled so the diagonal is
exactly 1 and the off-diagonal row sums equal the dominance factor, which
bounds the convergence rate and ties the update-delta stop threshold to the
residual tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import make_rng
from . import Layout, WorkloadConfig
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 10
N = 32
MAX_ITERS = 500
TOLERANCE = 1e-6  # residual bound ||Ax - b||_inf
DOMINANCE = 0.5

A_BASE = DATA_BASE
B_BASE = A_BASE + N * N * 8
X0 = B_BASE + N * 8
X1 = X0 + N * 8
# the output is the final iterate, which may sit in either buffer
LAYOUT = Layout(
    regions=(Region("tables", TAB_BASE, N * 8), Region("data", DATA_BASE, X1 + N * 8 - DATA_BASE)),
    output_dtype="f64",
    output_shape=(N,),
)


def generate_inputs(cfg: WorkloadConfig):
    rng = make_rng(cfg.seed, STREAM_TAG)
    a = rng.uniform(-1.0, 1.0, size=(N, N))
    np.fill_diagonal(a, 0.0)
    scale = DOMINANCE / np.abs(a).sum(axis=1)
    a *= scale[:, None]
    np.fill_diagonal(a, 1.0)
    b = rng.uniform(-1.0, 1.0, size=N)
    return a, b


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    n, a_base, b_base, x0, x1 = N, A_BASE, B_BASE, X0, X1
    a, b = generate_inputs(cfg)
    for i in range(n):
        mem.store_u64(TAB_BASE + 8 * i, a_base + i * n * 8)
    for i in range(n):
        row = a[i]
        for j in range(n):
            mem.store_f64(a_base + (i * n + j) * 8, row[j])
    for i in range(n):
        mem.store_f64(b_base + 8 * i, b[i])
        mem.store_f64(x0 + 8 * i, 0.0)
        mem.store_f64(x1 + 8 * i, 0.0)


def run(cfg: WorkloadConfig, mem: SimMemory) -> int:
    n, b_base = N, B_BASE
    max_iters = MAX_ITERS
    # with dominance p: error <= p/(1-p) * delta and ||A||_inf = 1 + p,
    # so stopping at delta < tol/2 keeps the residual under tol for p = 0.5
    stop = 0.5 * TOLERANCE
    lf = mem.load_f64
    lp = mem.load_u64
    init(cfg, mem)
    xo, xn = X0, X1
    it = 0
    while it < max_iters:
        delta = 0.0
        for i in range(n):
            mem.charge(n)
            rp = lp(TAB_BASE + 8 * i)
            s = 0.0
            for j in range(i):
                s += lf(rp + 8 * j) * lf(xo + 8 * j)
            for j in range(i + 1, n):
                s += lf(rp + 8 * j) * lf(xo + 8 * j)
            aii = lf(rp + 8 * i)
            num = lf(b_base + 8 * i) - s
            if aii != 0.0:
                xi = num / aii
            elif num > 0.0:
                xi = math.inf
            elif num < 0.0:
                xi = -math.inf
            else:
                xi = math.nan
            d = abs(xi - lf(xo + 8 * i))
            if d > delta:
                delta = d
            mem.store_f64(xn + 8 * i, xi)
        xo, xn = xn, xo
        if not math.isfinite(delta):
            break  # diverged; emit the garbage iterate like a real solver
        if delta < stop:
            break
        it += 1
        it += mem.skip_periods(max_iters - it, xo)
    return xo
