"""Sobel edge detection over a synthetic grayscale image.

Integer gradient magnitude |gx| + |gy| clipped to 255; border pixels are
zero. Row pointers into the input image live in the table region and are
re-read for each output row.
"""

from __future__ import annotations

from ..rng import make_rng
from . import Layout, WorkloadConfig
from .images import synthetic_image
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 14
IMG = 64
MAX_VAL = 255  # brightest input pixel

OUT = DATA_BASE + IMG * IMG
LAYOUT = Layout(
    regions=(Region("tables", TAB_BASE, IMG * 8), Region("data", DATA_BASE, 2 * IMG * IMG)),
    output_dtype="u8",
    output_shape=(IMG, IMG),
)


def generate_inputs(cfg: WorkloadConfig):
    rng = make_rng(cfg.seed, STREAM_TAG)
    return synthetic_image(rng, IMG, MAX_VAL)


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    n, img, out = IMG, DATA_BASE, OUT
    image = generate_inputs(cfg)
    for y in range(n):
        mem.store_u64(TAB_BASE + 8 * y, img + y * n)
    for i, v in enumerate(image.tobytes()):
        mem.store_u8(img + i, v)
    for x in range(n):  # top and bottom border rows
        mem.store_u8(out + x, 0)
        mem.store_u8(out + (n - 1) * n + x, 0)
    for y in range(1, n - 1):  # side border columns
        mem.store_u8(out + y * n, 0)
        mem.store_u8(out + y * n + n - 1, 0)


def run(cfg: WorkloadConfig, mem: SimMemory) -> int:
    n, out = IMG, OUT
    l8 = mem.load_u8
    s8 = mem.store_u8
    init(cfg, mem)
    for y in range(1, n - 1):
        mem.charge(n)
        pa = mem.load_u64(TAB_BASE + 8 * (y - 1))
        pm = mem.load_u64(TAB_BASE + 8 * y)
        pb = mem.load_u64(TAB_BASE + 8 * (y + 1))
        row_out = out + y * n
        for x in range(1, n - 1):
            a0 = l8(pa + x - 1)
            a1 = l8(pa + x)
            a2 = l8(pa + x + 1)
            m0 = l8(pm + x - 1)
            m2 = l8(pm + x + 1)
            b0 = l8(pb + x - 1)
            b1 = l8(pb + x)
            b2 = l8(pb + x + 1)
            gx = (a2 - a0) + 2 * (m2 - m0) + (b2 - b0)
            gy = (b0 + 2 * b1 + b2) - (a0 + 2 * a1 + a2)
            mag = abs(gx) + abs(gy)
            s8(row_out + x, mag if mag < 255 else 255)
    return out
