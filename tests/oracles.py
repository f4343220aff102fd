"""Brute-force oracles for the metrics in `voltfi.harness`."""

from itertools import permutations

import numpy as np


def exhaustive_label_matching(confusion: np.ndarray) -> int:
    """Best matched-point sum over all k! label bijections."""
    k = confusion.shape[0]
    return max(sum(int(confusion[r, p[r]]) for r in range(k)) for p in permutations(range(k)))
