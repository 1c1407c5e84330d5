"""Numpy kernels: distance profiles and the statevector mixer.

Two exact integer routes build a target space's (|T|, n+1) profile matrix
and give the same values:

* `pairwise_profiles` histograms all |T|^2 pairwise distances, O(|T|^2 n),
  into an int64 matrix;
* `shell_profiles` grows Hamming shells around the targets over all 2^n
  states, one pass per qubit, O(n^2 2^n) integer adds made in place, and
  returns the shell table read at the targets in the table's own narrow
  integer type, never widened.

`distance_profiles` runs the one that `profile_route` picks from n and |T|
alone; a caller that needs int64 widens what it reads.  `apply_mixer` serves
only the statevector oracle.
"""

import math

import numpy as np

BACKEND = "numpy"  # read by perfbench's run manifest

_BLOCK_DISTANCES = 512 * 1024  # per pairwise row block: ~4 MB of int64 XORs

PAIRWISE_ROUTE = "pairwise"
SHELL_ROUTE = "shells"


def profile_route(n: int, m: int) -> str:
    """The profile kernel for m targets of width n: shells or pairwise.

    Shells win when n(n+1) 2^n, twice their integer adds, undercuts the m^2
    pairs and their (n+1) 2^n table is no larger than 512 pairwise rows.
    """
    table = (n + 1) << n
    if n * table < m * m and table <= 512 * m:
        return SHELL_ROUTE
    return PAIRWISE_ROUTE


def distance_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) profile matrix of m distinct states, by the cheaper route.

    int64 from the pairwise route; the shell table's narrow type from shells.
    """
    if profile_route(n, len(states)) == SHELL_ROUTE:
        return shell_profiles(states, n)
    return pairwise_profiles(states, n)


def pairwise_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) int64 matrix; row i histograms distances from states[i] to all states."""
    m = states.shape[0]
    out = np.empty((m, n + 1), dtype=np.int64)
    width = n + 1
    step = max(1, _BLOCK_DISTANCES // m)
    for start in range(0, m, step):
        block = states[start : start + step]
        dist = np.bitwise_count(block[:, None] ^ states[None, :]).astype(np.int64)
        rows = block.shape[0]
        offsets = np.arange(rows, dtype=np.int64)[:, None] * width + dist
        hist = np.bincount(offsets.ravel(), minlength=rows * width)
        out[start : start + rows] = hist.reshape(rows, width)
    return out


def shell_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) matrix equal in value to `pairwise_profiles(states, n)`.

    shells[d, x] counts the states at distance d from x over the qubits
    passed so far.  It starts as the indicator of the set at d = 0; the pass
    over qubit q adds shells[d-1, x ^ 2^q] into shells[d, x] in place, for d
    from q+1 down to 1: row d-1 is read before its own update, so no copy.
    After q passes no count sits beyond d = q.

    No count exceeds m, so the table takes the narrowest signed integer type
    that holds m: the passes are memory-bound, and int16 halves int32's bytes.
    The result is the table's columns at the targets in that type, a
    transposed (Fortran-ordered) view of the gather `shells[:, states]`.
    """
    m = states.shape[0]
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if m <= np.iinfo(t).max)
    shells = np.zeros((n + 1, 1 << n), dtype=dtype)
    shells[0, states] = 1
    for q in range(n):
        rows = shells.reshape(n + 1, -1, 2, 1 << q)
        for d in range(q + 1, 0, -1):
            rows[d] += rows[d - 1, :, ::-1]
    return shells[:, states].T


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
