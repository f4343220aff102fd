"""JPEG-style 8x8 block DCT compress/decompress round trip.

Forward DCT, quantization with a scaled luminance table, dequantization and
inverse DCT, block by block over a synthetic grayscale image. Block base
pointers live in the table region; pixel, scratch, coefficient and
quantizer bytes are bulk data.
"""

from __future__ import annotations

import math

from ..rng import make_rng
from . import Layout, WorkloadConfig
from .images import synthetic_image
from .memory import DATA_BASE, TAB_BASE, Region, SimMemory

STREAM_TAG = 12
IMG = 64
BLOCK = 8
QUANT_SCALE = 0.08  # fraction of the standard luminance table
MAX_VAL = 255  # brightest input pixel
NB = IMG // BLOCK  # blocks per image side

OUT = DATA_BASE + IMG * IMG
SCR = OUT + IMG * IMG
COEF = SCR + 512
QT = COEF + 512
LAYOUT = Layout(
    regions=(Region("tables", TAB_BASE, NB * NB * 8), Region("data", DATA_BASE, QT + 64 - DATA_BASE)),
    output_dtype="u8",
    output_shape=(IMG, IMG),
)

# ITU-T T.81 luminance quantization table
QBASE = (
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
)

COS = tuple(
    tuple(math.cos((2 * x + 1) * u * math.pi / 16.0) for x in range(8))
    for u in range(8)
)
CU = (1.0 / math.sqrt(2.0),) + (1.0,) * 7


def _quantize(val: float, q: int) -> float:
    """Nearest-integer quantization; IEEE-style degradation on garbage input."""
    if q:
        val = val / q
    elif val != 0.0:
        val = math.copysign(math.inf, val)
    else:
        val = math.nan
    return float(round(val)) if math.isfinite(val) else val


def quant_table(cfg: WorkloadConfig) -> list[int]:
    return [max(1, round(q * QUANT_SCALE)) for q in QBASE]


def generate_inputs(cfg: WorkloadConfig):
    rng = make_rng(cfg.seed, STREAM_TAG)
    return synthetic_image(rng, IMG, MAX_VAL)


def init(cfg: WorkloadConfig, mem: SimMemory) -> None:
    n, nb, img, qt = IMG, NB, DATA_BASE, QT
    image = generate_inputs(cfg)
    for b in range(nb * nb):
        by, bx = divmod(b, nb)
        mem.store_u64(TAB_BASE + 8 * b, img + (by * BLOCK) * n + bx * BLOCK)
    for i, v in enumerate(image.tobytes()):
        mem.store_u8(img + i, v)
    for i, q in enumerate(quant_table(cfg)):
        mem.store_u8(qt + i, q)


def run(cfg: WorkloadConfig, mem: SimMemory) -> int:
    n, nb, out, scr, coef, qt = IMG, NB, OUT, SCR, COEF, QT
    lf = mem.load_f64
    l8 = mem.load_u8
    sf = mem.store_f64
    init(cfg, mem)
    for b in range(nb * nb):
        mem.charge(64)
        bp = mem.load_u64(TAB_BASE + 8 * b)
        # forward DCT along rows: pixels -> scratch
        for r in range(8):
            px = [l8(bp + r * n + c) - 128.0 for c in range(8)]
            for u in range(8):
                cos_u = COS[u]
                s = 0.0
                for x in range(8):
                    s += px[x] * cos_u[x]
                sf(scr + (r * 8 + u) * 8, 0.5 * CU[u] * s)
        # forward DCT along columns, then quantize into coef
        for u in range(8):
            col = [lf(scr + (r * 8 + u) * 8) for r in range(8)]
            for v in range(8):
                cos_v = COS[v]
                s = 0.0
                for r in range(8):
                    s += col[r] * cos_v[r]
                q = l8(qt + v * 8 + u)
                sf(coef + (v * 8 + u) * 8, _quantize(0.5 * CU[v] * s, q))
        # dequantize + inverse DCT along columns: coef -> scratch
        for u in range(8):
            cq = [lf(coef + (v * 8 + u) * 8) * l8(qt + v * 8 + u) for v in range(8)]
            for r in range(8):
                s = 0.0
                for v in range(8):
                    s += CU[v] * cq[v] * COS[v][r]
                sf(scr + (r * 8 + u) * 8, 0.5 * s)
        # inverse DCT along rows: scratch -> output pixels
        oy = (b // nb) * BLOCK
        ox = (b % nb) * BLOCK
        for r in range(8):
            row = [lf(scr + (r * 8 + u) * 8) for u in range(8)]
            for x in range(8):
                s = 0.0
                for u in range(8):
                    s += CU[u] * row[u] * COS[u][x]
                v = 0.5 * s + 128.0
                p = round(v) if math.isfinite(v) else 0
                if p < 0:
                    p = 0
                elif p > 255:
                    p = 255
                mem.store_u8(out + (oy + r) * n + ox + x, p)
    return out
