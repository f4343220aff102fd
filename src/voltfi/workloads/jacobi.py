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

from ..cachesim import CrashSignal
from ..rng import make_rng
from . import Layout, WorkloadConfig, WorkloadResult, finish
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 10
N = 32
MAX_ITERS = 500
TOLERANCE = 1e-6  # residual bound ||Ax - b||_inf
DOMINANCE = 0.5


def _sizes(cfg: WorkloadConfig) -> int:
    return int(cfg.param("n", N))


def layout(cfg: WorkloadConfig) -> Layout:
    n = _sizes(cfg)
    data_size = n * n * 8 + 3 * n * 8
    # output parity: with the delta/2 stop rule the final iterate may sit in
    # either buffer; run() overrides output_addr, this is the default slot
    return Layout(
        regions=(Region("tables", TAB_BASE, n * 8), Region("data", DATA_BASE, data_size)),
        mem_size=DATA_BASE + data_size,
        output_addr=DATA_BASE + n * n * 8 + n * 8,
        output_bytes=n * 8,
        output_dtype="f64",
        output_shape=(n,),
    )


def generate_inputs(cfg: WorkloadConfig):
    n = _sizes(cfg)
    rng = make_rng(cfg.seed, STREAM_TAG)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    scale = DOMINANCE / np.abs(a).sum(axis=1)
    a *= scale[:, None]
    np.fill_diagonal(a, 1.0)
    b = rng.uniform(-1.0, 1.0, size=n)
    return a, b


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    n = _sizes(cfg)
    a, b = generate_inputs(cfg)
    a_base = DATA_BASE
    b_base = a_base + n * n * 8
    x0 = b_base + n * 8
    x1 = x0 + n * 8
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


def run(cfg: WorkloadConfig, mem: SimMemory) -> WorkloadResult:
    n = _sizes(cfg)
    max_iters = int(cfg.param("max_iters", MAX_ITERS))
    tol = float(cfg.param("tolerance", TOLERANCE))
    lay = layout(cfg)
    b_base = DATA_BASE + n * n * 8
    x0 = b_base + n * 8
    x1 = x0 + n * 8
    # with dominance p: error <= p/(1-p) * delta and ||A||_inf = 1 + p,
    # so stopping at delta < tol/2 keeps the residual under tol for p = 0.5
    stop = 0.5 * tol
    lf = mem.load_f64
    lp = mem.load_u64
    try:
        init(cfg, mem)
        xo, xn = x0, x1
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
    except CrashSignal as c:
        return WorkloadResult.crash(c.reason)
    lay = Layout(lay.regions, lay.mem_size, xo, n * 8, "f64", (n,))
    return finish(mem, lay)
