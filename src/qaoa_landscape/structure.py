"""Solution-space structure statistics.

For a target space T and a reference k in T, profile entry d counts targets
at Hamming distance d from k.  An instance carries the average of those
counts and of their pairwise products over all k in T; an ensemble summary
averages the instance values and keeps the spread of |T|.  All means and
variances use the population convention (divide by the count, not count-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TargetSpace, UsageError

EMPIRICAL_MODE = "empirical"


@dataclass(frozen=True, eq=False)
class InstanceStats:
    """Distance statistics of one target space."""

    n: int
    t_size: int
    mean_profile: np.ndarray  # (n+1,)  mean over k in T of counts at distance d
    mean_pair: np.ndarray  # (n+1, n+1)  mean over k of counts[d1]*counts[d2]


@dataclass(frozen=True, eq=False)
class StructuralSummary:
    """Ensemble-level expectations of target-space structure.

    count == 0 marks an analytic summary (no sample behind it); mode records
    which model produced the pair expectations.
    """

    n: int
    count: int
    e_tsize: float
    var_tsize: float
    e_profile: np.ndarray  # (n+1,)
    e_pair: np.ndarray  # (n+1, n+1)
    mode: str = EMPIRICAL_MODE


def instance_stats(space: TargetSpace) -> InstanceStats:
    """Average distance profile and pair products over all references in T.

    Products are accumulated in exact integer arithmetic before the single
    division, so no rounding drift enters the pair matrix.
    """
    return InstanceStats(
        n=space.n,
        t_size=len(space),
        mean_profile=space.mean_profile,
        mean_pair=space.mean_pair,
    )


def aggregate(stats: list[InstanceStats]) -> StructuralSummary:
    """Average instance statistics into an ensemble summary."""
    if not stats:
        raise UsageError("cannot aggregate an empty list of instance stats")
    n = stats[0].n
    if any(s.n != n for s in stats):
        raise UsageError("instance stats mix different widths n")
    sizes = np.array([s.t_size for s in stats], dtype=np.float64)
    return StructuralSummary(
        n=n,
        count=len(stats),
        e_tsize=float(sizes.mean()),
        var_tsize=float(sizes.var()),
        e_profile=np.mean([s.mean_profile for s in stats], axis=0),
        e_pair=np.mean([s.mean_pair for s in stats], axis=0),
    )
