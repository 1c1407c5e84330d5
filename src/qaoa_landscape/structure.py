"""Ensemble summaries of solution-space structure.

A target space T carries its own statistic (`TargetSpace.mean_pair`: the
average over references k in T of the pairwise products of the counts of
targets at each Hamming distance from k; its row 0 is the mean of the counts,
since every profile counts k alone at distance 0).  An ensemble
summary averages those over the instances and keeps the spread of |T|.  All
means and variances use the population convention (divide by the count, not
count-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_WIDTH, TargetSpace, UsageError, binomial_row

EMPIRICAL_MODE = "empirical"
PAPER_MODE = "paper"
EXACT_MODE = "exact_hypergeometric"
SUMMARY_MODES = (EMPIRICAL_MODE, PAPER_MODE, EXACT_MODE)

# rounding a summary may show, relative to each entry's bound (covariance: to max e_pair)
ROUNDING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StructuralSummary:
    """Ensemble-level expectations of target-space structure.

    count == 0 marks an analytic summary (no sample behind it); mode records
    which model produced the pair expectations.  The one validator of a
    summary, however built: each field in range, all consistent as moments.
    """

    n: int
    count: int
    e_tsize: float
    var_tsize: float
    e_profile: np.ndarray  # (n+1,)
    e_pair: np.ndarray  # (n+1, n+1)
    mode: str = EMPIRICAL_MODE

    def __post_init__(self) -> None:
        n = self.n
        if self.mode not in SUMMARY_MODES:
            raise UsageError(f"mode must be one of {SUMMARY_MODES}, got {self.mode!r}")
        if type(n) is not int or not 1 <= n <= MAX_WIDTH:  # bool refused
            raise UsageError(f"n must be an integer in [1, {MAX_WIDTH}], got {n!r}")
        if type(self.count) is not int or self.count < 0:
            raise UsageError(f"count must be a non-negative integer, got {self.count!r}")
        for name, value in (("e_tsize", self.e_tsize), ("var_tsize", self.var_tsize)):
            if not math.isfinite(value):
                raise UsageError(f"{name} must be a finite number, got {value!r}")
        if not 1.0 <= self.e_tsize <= 1 << n:  # a mean of target-set sizes |T| in [1, 2^n]
            raise UsageError(f"e_tsize must be in [1, 2^{n}], got {self.e_tsize!r}")
        if self.var_tsize < 0.0:
            raise UsageError(f"var_tsize must be non-negative, got {self.var_tsize!r}")
        profile, pair = self.e_profile, self.e_pair
        if profile.shape != (n + 1,) or pair.shape != (n + 1, n + 1):
            raise UsageError("arrays do not match n")
        for name, array in (("e_profile", profile), ("e_pair", pair)):
            if not np.isfinite(array).all():
                raise UsageError(f"{name} must be finite")
        if not np.allclose(pair, pair.T, rtol=ROUNDING_TOL, atol=ROUNDING_TOL):
            raise UsageError("e_pair must be symmetric")
        row = binomial_row(n)
        _check_counts(profile, row, "e_profile")
        _check_counts(pair, np.outer(row, row), "e_pair")
        if abs(profile[0] - 1.0) > ROUNDING_TOL:  # a member is its own only target at distance 0
            raise UsageError(f"e_profile[0] must be 1, got {float(profile[0])!r}")
        if (np.abs(np.stack((pair[0], pair[:, 0])) - profile) > ROUNDING_TOL * row).any():
            raise UsageError("e_pair row and column 0 must equal e_profile")
        # positive semidefinite up to rounding: a Cholesky factor exists after a shift
        shift = ROUNDING_TOL * np.abs(pair).max() * np.eye(n + 1)
        try:
            np.linalg.cholesky(pair - np.outer(profile, profile) + shift)
        except np.linalg.LinAlgError:
            raise UsageError(
                "e_pair - outer(e_profile, e_profile) must be positive semidefinite"
            ) from None


def _check_counts(array: np.ndarray, top: np.ndarray, name: str) -> None:
    """Refuse a mean count outside [0, top], bar ROUNDING_TOL * top at either end.

    top holds C(n, d) along each axis: a member has C(n, d) states at distance d.
    """
    slack = ROUNDING_TOL * top
    outside = np.argwhere((array < -slack) | (array > top + slack))
    if outside.size:
        at = tuple(int(d) for d in outside[0])
        n = len(top) - 1
        bound = " * ".join(f"C({n}, {d})" for d in at)
        where = "".join(f"[{d}]" for d in at)
        raise UsageError(f"{name}{where} must be in [0, {bound}], got {float(array[at])!r}")


def aggregate(spaces: list[TargetSpace]) -> StructuralSummary:
    """Average the statistics of target spaces into an ensemble summary.

    The spaces' mean_pair matrices are summed in order and divided by the
    count once: the bits of np.mean over the stacked matrices (numpy sums a
    leading axis row by row), and e_profile is row 0 of the result.  No
    stack is built, but each space keeps its cached mean_pair, (n+1)^2
    floats, after the sum: 223 MiB over 2*10^5 spaces at n = 10 (ROADMAP
    item 3 would drop that cache).
    """
    if not spaces:
        raise UsageError("cannot aggregate an empty list of target spaces")
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise UsageError("target spaces mix different widths n")
    sizes = np.fromiter((len(s) for s in spaces), dtype=np.float64, count=len(spaces))
    pair = sum(space.mean_pair for space in spaces)  # 0 + the first matrix is that matrix
    return StructuralSummary(
        n=n,
        count=len(spaces),
        e_tsize=float(sizes.mean()),
        var_tsize=float(sizes.var()),
        e_profile=pair[0] / len(spaces),
        e_pair=pair / len(spaces),
    )
