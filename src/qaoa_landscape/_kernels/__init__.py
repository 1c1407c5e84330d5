"""Numpy kernels: pairwise distance profiles and the statevector mixer.

`pairwise_profiles` builds every target space's profile matrix;
`apply_mixer` serves only the statevector oracle.
"""

import math

import numpy as np

BACKEND = "numpy"

_ROW_BLOCK = 512  # bounds the m x m distance matrix to ~4 MB per block


def pairwise_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) int64 matrix; row i histograms distances from states[i] to all states."""
    states = np.ascontiguousarray(states, dtype=np.uint64)
    m = states.shape[0]
    out = np.empty((m, n + 1), dtype=np.int64)
    width = n + 1
    for start in range(0, m, _ROW_BLOCK):
        block = states[start : start + _ROW_BLOCK]
        dist = np.bitwise_count(block[:, None] ^ states[None, :]).astype(np.int64)
        rows = block.shape[0]
        offsets = np.arange(rows, dtype=np.int64)[:, None] * width + dist
        hist = np.bincount(offsets.ravel(), minlength=rows * width)
        out[start : start + rows] = hist.reshape(rows, width)
    return out


def apply_mixer(amps: np.ndarray, beta: float, n: int) -> None:
    """Apply exp(-i*beta*X) qubit by qubit, in place on a 2^n statevector."""
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    for q in range(n):
        view = amps.reshape(-1, 2, 1 << q)
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = c * lo + s * hi
        view[:, 1, :] = s * lo + c * hi


__all__ = ["apply_mixer", "pairwise_profiles", "BACKEND"]
