"""Target spaces, Hamming distances, distance profiles and angle grids.

Conventions used throughout the package:

* bit i of an integer holds qubit i, so a state's integer value is its
  computational-basis index;
* target spaces are sorted duplicate-free tuples of such integers;
* a distance profile of a reference state k against a target space T is the
  dense length-(n+1) vector whose entry d counts the members of T at Hamming
  distance d from k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels

MAX_WIDTH = 32
MAX_STATEVECTOR_WIDTH = 24  # 2^n complex amplitudes must stay in memory
MAX_BINOMIAL_N = 64  # C(64, 32) still fits a signed 64-bit integer
MAX_GRID_POINTS = 10**6  # a landscape grid holds a few float64 arrays of this many points
_PAIR_BLOCK = 4096  # rows per float64 gemm in exact_pair_sums: 20-bit limbs


class UsageError(ValueError):
    """The caller violated a documented precondition."""


class ComputationError(RuntimeError):
    """A numeric result left its contract; indicates an internal defect."""


def binomial(n: int, d: int) -> int:
    """C(n, d), exactly; zero outside 0 <= d <= n."""
    if not 0 <= n <= MAX_BINOMIAL_N:
        raise UsageError(f"n must be in [0, {MAX_BINOMIAL_N}], got {n}")
    if d < 0 or d > n:
        return 0
    return math.comb(n, d)


def binomial_row(n: int) -> np.ndarray:
    """All C(n, d) for d = 0..n as float64 (exact for n <= 64)."""
    return np.array([binomial(n, d) for d in range(n + 1)], dtype=np.float64)


@dataclass(frozen=True)
class TargetSpace:
    """A non-empty set of n-bit target states, and its distance statistics.

    The one validator of a target set: every state is an int (bool refused)
    that fits n bits, and the states are distinct and ascending.  The space
    also owns everything the landscape reads from it: |T|, the mean distance
    profile and the mean pair matrix, of which it keeps only the pair matrix.
    """

    n: int
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_WIDTH:
            raise UsageError(f"n must be in [1, {MAX_WIDTH}], got {self.n}")
        if not self.states:
            raise UsageError("empty target list")
        limit = 1 << self.n
        prev = -1
        for s in self.states:
            if type(s) is not int or not 0 <= s < limit:
                raise UsageError(f"state {s!r} does not fit {self.n} bits")
            if s <= prev:
                raise UsageError("duplicate target states" if s == prev else "states must ascend")
            prev = s

    @classmethod
    def from_iterable(cls, n: int, states) -> "TargetSpace":
        return cls(n, tuple(sorted({int(s) for s in states})))

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def states_array(self) -> np.ndarray:
        return np.asarray(self.states, dtype=np.uint64)

    @property
    def profiles(self) -> np.ndarray:
        """(|T|, n+1) int64 matrix; row i is the distance profile of states[i].

        Built on each access, never kept, by the exact kernel that costs less
        at this n and |T|: pairwise distances, O(|T|^2 n), or Hamming shells
        over all 2^n states, O(n^2 2^n).  Both give the same integers.
        """
        return _kernels.distance_profiles(self.states_array, self.n)

    @property
    def mean_profile(self) -> np.ndarray:
        """(n+1,) float64 mean distance profile: row 0 of mean_pair, since every P[i, 0] is 1."""
        return self.mean_pair[0]

    @cached_property
    def mean_pair(self) -> np.ndarray:
        """(n+1, n+1) float64 mean profile outer product: exact P^T P / |T|."""
        return exact_pair_sums(self.profiles) / len(self)


def exact_pair_sums(profiles: np.ndarray) -> np.ndarray:
    """P^T P of a non-negative int64 profile matrix, refused where int64 would wrap.

    Every entry is a sum of m products of two entries of P, so it stays below
    m * max(P)^2; that bound must stay below 2^63.

    numpy's integer matmul does not use BLAS, so the sums run as float64
    gemms on an error-free split of P into b-bit limbs (Ozaki, Ogita, Oishi
    and Rump, Numer. Algorithms 59, 2012).  A block of r rows gets limbs of
    b = (53 - bitlen(r)) // 2 bits, so each partial sum of a gemm is an
    integer below r * 2^(2b) <= 2^53 and exact in any summation order.  The
    limb blocks of each gemm are shifted back and summed in int64, one row
    block at a time, so no float64 copy of the whole matrix is held.
    """
    m, width = profiles.shape
    peak = int(profiles.max(initial=0))
    if m * peak * peak >= 1 << 63:
        raise UsageError(
            f"P^T P of {m} profiles with counts up to {peak} would overflow int64"
        )
    bits = (53 - min(m, _PAIR_BLOCK).bit_length()) // 2
    limbs = max(1, -(-peak.bit_length() // bits))
    mask = (1 << bits) - 1
    out = np.zeros((width, width), dtype=np.int64)
    for start in range(0, m, _PAIR_BLOCK):
        block = profiles[start : start + _PAIR_BLOCK]
        split = np.empty((block.shape[0], limbs * width))
        for i in range(limbs):
            split[:, i * width : (i + 1) * width] = (block >> (i * bits)) & mask
        gram = (split.T @ split).astype(np.int64)
        for i in range(limbs):
            for j in range(limbs):
                part = gram[i * width : (i + 1) * width, j * width : (j + 1) * width]
                out += part << ((i + j) * bits)
    return out


def distance_profile(space: TargetSpace, k: int) -> np.ndarray:
    """Counts of targets at each Hamming distance 0..n from reference state k.

    k need not belong to the space (then counts[0] == 0), but it must fit
    n bits.  The per-reference oracle of ``TargetSpace.profiles``.
    """
    if type(k) is not int or not 0 <= k < 1 << space.n:
        raise UsageError(f"reference {k!r} does not fit {space.n} bits")
    dist = np.bitwise_count(space.states_array ^ np.uint64(k))
    return np.bincount(dist.astype(np.int64), minlength=space.n + 1).astype(np.int64)


@dataclass(frozen=True)
class Angles:
    """A (beta, gamma) pair: mixer angle and phase angle."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise UsageError(f"angles must be finite, got {self}")


@dataclass(frozen=True)
class AngleGrid:
    """A rectangular lattice of (beta, gamma) points, endpoints included."""

    beta_min: float
    beta_max: float
    gamma_min: float
    gamma_max: float
    beta_steps: int
    gamma_steps: int

    def __post_init__(self) -> None:
        for name in ("beta_min", "beta_max", "gamma_min", "gamma_max"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite")
        if self.beta_max < self.beta_min or self.gamma_max < self.gamma_min:
            raise UsageError("grid bounds must satisfy max >= min")
        if self.beta_steps < 1 or self.gamma_steps < 1:
            raise UsageError("grid must have at least one point per axis")
        if self.beta_steps * self.gamma_steps > MAX_GRID_POINTS:
            raise UsageError(
                f"grid has {self.beta_steps * self.gamma_steps} points, more than {MAX_GRID_POINTS}"
            )

    def betas(self) -> np.ndarray:
        return np.linspace(self.beta_min, self.beta_max, self.beta_steps)

    def gammas(self) -> np.ndarray:
        return np.linspace(self.gamma_min, self.gamma_max, self.gamma_steps)


def default_grid(beta_steps: int = 100, gamma_steps: int = 100) -> AngleGrid:
    """Standard plotting window: beta in [0, pi], gamma covering [0, 2*pi)."""
    return AngleGrid(
        0.0,
        math.pi,
        0.0,
        2.0 * math.pi * (gamma_steps - 1) / gamma_steps,
        beta_steps,
        gamma_steps,
    )
