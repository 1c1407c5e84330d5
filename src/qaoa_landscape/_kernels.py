"""Numpy kernels: distance profiles and the statevector mixer.

Two exact integer routes build a target space's (|T|, n+1) profile matrix
and give the same values:

* `pairwise_profiles` histograms all |T|^2 pairwise distances, O(|T|^2 n),
  into an int64 matrix;
* `shell_batch` grows Hamming shells around the targets over all 2^n
  states, one pass per qubit, O(n^2 2^n) integer adds made in place, for a
  batch of same-width target sets in one table with the set axis innermost,
  and yields each set's columns of the table in the table's own narrow
  integer type, never widened.

`profiles` is the one place that picks each set's route, by `profile_route`
from n and |T| alone, and the sets that share a shell table; the package
reads its results as they are.  `distance_profiles` runs it on one set.
`apply_mixer` serves only the statevector oracle.
"""

import math

import numpy as np

BACKEND = "numpy"  # read by perfbench's run manifest

_BLOCK_DISTANCES = 512 * 1024  # per pairwise row block: ~4 MB of int64 XORs

PAIRWISE_ROUTE = "pairwise"
SHELL_ROUTE = "shells"

# most bytes of a batch's shell table: four int16 tables at n = 14.  On dense-u14 a 4 MiB
# cap raised peak RSS by about 3 MiB over unbatched tables (2 MiB: 1.4 MiB), for no speed.
SHELL_BATCH_BYTES = 2 << 20


def profile_route(n: int, m: int) -> str:
    """The profile kernel for m targets of width n: shells or pairwise.

    Shells win when n(n+1) 2^n, twice their integer adds, undercuts the m^2
    pairs and their (n+1) 2^n table is no larger than 512 pairwise rows.
    """
    table = (n + 1) << n
    if n * table < m * m and table <= 512 * m:
        return SHELL_ROUTE
    return PAIRWISE_ROUTE


def profiles(sets: list[np.ndarray], n: int):
    """(i, profile matrix of sets[i]) for every set of distinct n-bit states, each i once.

    A pairwise-route set is yielded when met.  Consecutive shell-route sets,
    pairwise ones skipped, share a `shell_batch` table of at most
    SHELL_BATCH_BYTES; a set whose table alone is larger runs alone.  A
    consumer that drops each matrix before the next holds one gather at most.
    """
    batch: list[int] = []  # shell-route sets waiting for one table, of at most `largest` states
    for i, states in enumerate(sets):
        m = len(states)
        if profile_route(n, m) == PAIRWISE_ROUTE:
            yield i, pairwise_profiles(states, n)
            continue
        if batch and shell_table_bytes(n, len(batch) + 1, max(largest, m)) > SHELL_BATCH_BYTES:
            yield from _shared_table(sets, batch, n)
            batch = []
        largest = max(largest, m) if batch else m
        batch.append(i)
    if batch:
        yield from _shared_table(sets, batch, n)


def _shared_table(sets: list[np.ndarray], batch: list[int], n: int):
    """(i, profiles of sets[i]) for each i of batch, from one table; no gather held here."""
    gathers = shell_batch([sets[i] for i in batch], n)
    for i in batch:
        yield i, next(gathers)


def distance_profiles(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) profile matrix of m distinct states: int64, or the shell table's narrow type."""
    return next(profiles([states], n))[1]


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


def shell_table_bytes(n: int, count: int, largest: int) -> int:
    """Bytes of the shell table of count target sets of width n, the largest of size largest."""
    return count * (n + 1) * np.dtype(_table_type(largest)).itemsize << n


def _table_type(m: int):
    """The narrowest signed integer type that holds m: no shell count exceeds its set's size."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if m <= np.iinfo(t).max)


def shell_batch(batch: list[np.ndarray], n: int):
    """Each set's (m_i, n+1) profile matrix, in order, from one shell table of the batch.

    shells[d, x, i] counts the states of batch[i] at distance d from x over
    the qubits passed so far.  It starts as each set's indicator at d = 0;
    the pass over qubit q adds shells[d-1, x ^ 2^q] into shells[d, x] in
    place, for d from q+1 down to 1: row d-1 is read before its own update,
    so no copy.  After q passes no count sits beyond d = q.  With the b
    sets innermost, each add runs over b * 2^q contiguous counts, not 2^q:
    one table serves the batch in the same n(n+1)/2 adds as one set.

    The passes are memory-bound, so the table takes the narrowest signed
    integer type that holds the largest set (int16 halves int32's bytes).
    Each result is that set's columns of the table in that type, a
    transposed (Fortran-ordered) view of the gather `shells[:, states, i]`.
    The table is freed before the last set's result is yielded, so a batch
    of one holds the table and its gather, never the table and the
    consumer's work on the gather.
    """
    b = len(batch)
    shells = np.zeros((n + 1, 1 << n, b), dtype=_table_type(max(map(len, batch))))
    for i, states in enumerate(batch):
        shells[0, states, i] = 1
    for q in range(n):
        rows = shells.reshape(n + 1, -1, 2, b << q)
        for d in range(q + 1, 0, -1):
            rows[d] += rows[d - 1, :, ::-1]
    del rows  # a view that would keep the table alive
    for i, states in enumerate(batch[:-1]):
        yield shells[:, states, i].T
    last = shells[:, batch[-1], b - 1].T
    del shells
    yield last


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
