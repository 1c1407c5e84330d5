"""Target spaces, Hamming distances, distance profiles, angle grids and random streams.

Conventions used throughout the package:

* bit i of an integer holds qubit i, so a state's integer value is its
  computational-basis index;
* a target space holds its states in one read-only, ascending int64 array;
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
_PAIR_BLOCK = 4096  # most rows per gemm in exact_pair_sums: caps a block's float64 copy


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
    """All C(n, d) for d = 0..n as float64 (exact for n <= 56; C(57, 25) rounds)."""
    return np.array([binomial(n, d) for d in range(n + 1)], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class TargetSpace:
    """A non-empty set of n-bit target states, and its distance statistics.

    The one validator of a target set, of ints (bool refused) or an integer
    array: each state fits n bits, the states are distinct and ascending,
    and `states` keeps them as one read-only int64 array.  The space also
    owns everything the landscape reads from it: |T|, the mean distance
    profile and the mean pair matrix, of which it keeps only the pair matrix.
    """

    n: int
    states: np.ndarray

    def __post_init__(self) -> None:
        n, given = self.n, self.states
        if not 1 <= n <= MAX_WIDTH:
            raise UsageError(f"n must be in [1, {MAX_WIDTH}], got {n}")
        if len(given) == 0:
            raise UsageError("empty target list")
        if isinstance(given, np.ndarray) and given.dtype.kind not in "iu":
            given = given.tolist()  # a bool, float or object array takes the sequence route
        array = isinstance(given, np.ndarray)
        try:  # np.array would take a bool or a float for an int
            ints = array or set(map(type, given)) == {int}
            states = np.array(given, dtype=np.int64) if ints else None
        except OverflowError:  # an int of 64 bits or more
            states = None
        fits = states is not None and states.ndim == 1 and states[0] >= 0 and states[-1] >> n == 0
        if not fits or np.count_nonzero(states[1:] <= states[:-1]):  # name the first faulty state
            values = given.tolist() if array else given
            for prev, s in zip((-1, *values), values):
                if type(s) is not int or not 0 <= s < 1 << n:
                    raise UsageError(f"state {s!r} does not fit {n} bits")
                if s <= prev:
                    raise UsageError("duplicate target states" if s == prev else "states must ascend")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @classmethod
    def from_iterable(cls, n: int, states) -> "TargetSpace":
        """The space of the distinct states in states: ints or numpy integers, bools refused.

        A numpy scalar counts as its Python value; the elements of any other
        type go on to the constructor, which refuses them.
        """
        values = [s.item() if isinstance(s, np.generic) else s for s in states]
        return cls(n, [s for s in values if type(s) is not int] or sorted(set(values)))

    def __len__(self) -> int:
        return len(self.states)

    @property
    def profiles(self) -> np.ndarray:
        """(|T|, n+1) int64 matrix; row i is the distance profile of states[i].

        Built on each access, never kept, by the exact kernel that costs less
        at this n and |T|: pairwise distances, O(|T|^2 n), or Hamming shells
        over all 2^n states, O(n^2 2^n).  Both give the same integers; the
        shells' narrow table is widened to int64 here, on read.
        """
        profiles = _kernels.distance_profiles(self.states, self.n)
        return np.ascontiguousarray(profiles, dtype=np.int64)

    @cached_property
    def mean_pair(self) -> np.ndarray:
        """(n+1, n+1) float64 mean profile outer product: exact P^T P / |T|.

        Summed straight from the profile kernel's own integer type: on the
        shell route no int64 copy of P is made.
        """
        return exact_pair_sums(_kernels.distance_profiles(self.states, self.n)) / len(self)


def exact_pair_sums(profiles: np.ndarray) -> np.ndarray:
    """int64 P^T P of a non-negative integer matrix, refused where int64 would wrap.

    P may have any integer type and either memory order.  Every entry is a
    sum of m products of two entries of P, so it stays below m * max(P)^2;
    that bound must stay below 2^63.

    numpy's integer matmul does not use BLAS, so the sums run as float64
    gemms over blocks of r <= _PAIR_BLOCK rows with r * max(P)^2 <= 2^53:
    each partial sum is an integer of at most 2^53, exact in any order.  A
    profile count never exceeds m, so the bound keeps it below 2^21 and a
    profile block has 2048 rows or more.  Entries of 2^26.5 or more
    leave r = 0; their blocks take numpy's int64 matmul, exact below the bound.
    """
    m, width = profiles.shape
    peak = int(profiles.max(initial=0))
    if m * peak * peak >= 1 << 63:
        raise UsageError(
            f"P^T P of {m} profiles with counts up to {peak} would overflow int64"
        )
    rows = min(_PAIR_BLOCK, (1 << 53) // (peak * peak or 1))
    step, kind = (rows, np.float64) if rows else (_PAIR_BLOCK, np.int64)
    out = np.zeros((width, width), dtype=np.int64)
    for start in range(0, m, step):
        block = profiles[start : start + step].astype(kind)
        out += (block.T @ block).astype(np.int64)
    return out


def distance_profile(space: TargetSpace, k: int) -> np.ndarray:
    """Counts of targets at each Hamming distance 0..n from reference state k.

    k need not belong to the space (then counts[0] == 0), but it must fit
    n bits.  The per-reference oracle of ``TargetSpace.profiles``.
    """
    k = int(k) if isinstance(k, np.integer) else k  # a member of space.states; XOR needs the int
    if type(k) is not int or not 0 <= k < 1 << space.n:
        raise UsageError(f"reference {k!r} does not fit {space.n} bits")
    return np.bincount(np.bitwise_count(space.states ^ k), minlength=space.n + 1)


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
    """Standard plotting window: beta in [0, pi], gamma covering [0, 2*pi).

    A step count below 1 reaches AngleGrid's check undivided, as gamma_max 0.
    """
    gamma_max = 2.0 * math.pi * (gamma_steps - 1) / gamma_steps if gamma_steps > 0 else 0.0
    return AngleGrid(0.0, math.pi, 0.0, gamma_max, beta_steps, gamma_steps)


def streams(seed: int, keys):
    """One np.random.Generator per key (a tuple of ints) of keys, built lazily, in order.

    The package's one stream rule: an instance draws its targets from the
    stream keyed (id,) and an arm's shots from the one keyed (id, arm), each
    a SeedSequence spawn key under the run's seed, so no result depends on
    evaluation order.  The seed and every id are non-negative ints of any size.
    """
    for key in keys:
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
