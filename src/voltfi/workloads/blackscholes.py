"""European option pricing over a seeded option table.

Options are stored as 6-double records (spot, strike, rate, volatility,
expiry, call flag). Sixteen-option chunk pointers sit in the low table
region and are re-read for every option, so a corrupted pointer is
dereferenced immediately.
"""

from __future__ import annotations

import math

from ..rng import make_rng
from . import Layout, WorkloadConfig
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 11
N_OPTIONS = 1024
CHUNK = 16
OPTION_BYTES = 6 * 8

OUT = DATA_BASE + N_OPTIONS * OPTION_BYTES
LAYOUT = Layout(
    regions=(Region("tables", TAB_BASE, (N_OPTIONS // CHUNK) * 8),
             Region("data", DATA_BASE, OUT + N_OPTIONS * 8 - DATA_BASE)),
    output_dtype="f64",
    output_shape=(N_OPTIONS,),
)

_SQRT2 = math.sqrt(2.0)


def generate_inputs(cfg: WorkloadConfig):
    # normalized-underlying units: every stored double stays below 2.0
    n = N_OPTIONS
    rng = make_rng(cfg.seed, STREAM_TAG)
    spot = rng.uniform(0.5, 1.9, n)
    strike = rng.uniform(0.5, 1.9, n)
    rate = rng.uniform(0.01, 0.08, n)
    vol = rng.uniform(0.10, 0.60, n)
    expiry = rng.uniform(0.1, 1.9, n)
    is_call = rng.integers(0, 2, n).astype(float)
    return spot, strike, rate, vol, expiry, is_call


def price(spot, strike, rate, vol, expiry, is_call) -> float:
    """Closed-form price; numeric garbage degrades to NaN instead of raising."""
    try:
        if expiry <= 0.0 or vol <= 0.0:
            return max(0.0, spot - strike) if is_call != 0.0 else max(0.0, strike - spot)
        d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) / (vol * math.sqrt(expiry))
        d2 = d1 - vol * math.sqrt(expiry)
        disc = strike * math.exp(-rate * expiry)
        if is_call != 0.0:
            return spot * _phi(d1) - disc * _phi(d2)
        return disc * _phi(-d2) - spot * _phi(-d1)
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    opt_base = DATA_BASE
    fields = generate_inputs(cfg)
    for c in range(N_OPTIONS // CHUNK):
        mem.store_u64(TAB_BASE + 8 * c, opt_base + c * CHUNK * OPTION_BYTES)
    for i in range(N_OPTIONS):
        rec = opt_base + i * OPTION_BYTES
        for f, arr in enumerate(fields):
            mem.store_f64(rec + 8 * f, arr[i])


def run(cfg: WorkloadConfig, mem: SimMemory) -> int:
    out = OUT
    lf = mem.load_f64
    init(cfg, mem)
    for i in range(N_OPTIONS):
        mem.charge(1)
        rec = mem.load_u64(TAB_BASE + 8 * (i // CHUNK)) + (i % CHUNK) * OPTION_BYTES
        p = price(lf(rec), lf(rec + 8), lf(rec + 16), lf(rec + 24), lf(rec + 32), lf(rec + 40))
        mem.store_f64(out + 8 * i, p)
    return out
