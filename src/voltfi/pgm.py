"""Binary PGM (P5) images."""

from __future__ import annotations

import numpy as np


def encode_pgm(image: np.ndarray) -> bytes:
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("PGM needs a 2-D uint8 array")
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def scale_to_u8(matrix: np.ndarray) -> np.ndarray:
    """Scale non-negative values so the maximum maps to 255."""
    m = np.asarray(matrix, dtype=np.float64)
    peak = m.max()
    if peak <= 0:
        return np.zeros(m.shape, dtype=np.uint8)
    return np.rint(255.0 * m / peak).astype(np.uint8)
