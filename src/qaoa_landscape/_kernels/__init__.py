"""Numpy kernels: distance profiles and the statevector mixer.

Two exact integer routes build a target space's (|T|, n+1) profile matrix
and give the same int64 values:

* `pairwise_profiles` histograms all |T|^2 pairwise distances, O(|T|^2 n);
* `shell_profiles` grows Hamming shells around the targets over all 2^n
  states, one pass per qubit, O(n^2 2^n) integer adds.

`distance_profiles` runs the one that `profile_route` picks from n and |T|
alone.  `apply_mixer` serves only the statevector oracle.
"""

import math

import numpy as np

BACKEND = "numpy"

_ROW_BLOCK = 512  # bounds the m x m distance matrix to ~4 MB per block

PAIRWISE_ROUTE = "pairwise"
SHELL_ROUTE = "shells"


def profile_route(n: int, m: int) -> str:
    """The profile kernel for m targets of width n: shells or pairwise.

    Shells win when n(n+1) 2^n, twice their integer adds, undercuts the m^2
    pairs and their (n+1) 2^n table is no larger than one pairwise row block.
    """
    table = (n + 1) << n
    if n * table < m * m and table <= _ROW_BLOCK * m:
        return SHELL_ROUTE
    return PAIRWISE_ROUTE


def distance_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) int64 profile matrix of m distinct states, by the cheaper route."""
    if profile_route(n, len(states)) == SHELL_ROUTE:
        return shell_profiles(states, n)
    return pairwise_profiles(states, n)


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


def shell_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) int64 matrix equal to `pairwise_profiles(states, n)`.

    shells[d, x] counts the states at distance d from x over the qubits
    passed so far.  It starts as the indicator of the set at d = 0; the pass
    over qubit q adds shells[d-1, x ^ 2^q], read from before the pass, into
    shells[d, x].  After q passes no count sits beyond d = q.

    No count exceeds m, so the table takes the narrowest signed integer type
    that holds m: the passes are memory-bound, and int16 halves int32's bytes.
    """
    index = np.ascontiguousarray(states, dtype=np.intp)
    m = index.shape[0]
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if m <= np.iinfo(t).max)
    shells = np.zeros((n + 1, 1 << n), dtype=dtype)
    shells[0, index] = 1
    for q in range(n):
        view = shells.reshape(n + 1, -1, 2, 1 << q)
        lo = view[: q + 2, :, 0, :]
        hi = view[: q + 2, :, 1, :]
        low_before = lo[:-1].copy()
        lo[1:] += hi[:-1]
        hi[1:] += low_before
    return np.ascontiguousarray(shells[:, index].T, dtype=np.int64)


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


__all__ = [
    "apply_mixer",
    "distance_profiles",
    "pairwise_profiles",
    "profile_route",
    "shell_profiles",
    "BACKEND",
    "PAIRWISE_ROUTE",
    "SHELL_ROUTE",
]
