"""Ensemble summaries of solution-space structure.

A target space T carries its own statistics (`TargetSpace.mean_profile` and
`mean_pair`: the average over references k in T of the counts of targets at
each Hamming distance from k, and of their pairwise products).  An ensemble
summary averages those over the instances and keeps the spread of |T|.  All
means and variances use the population convention (divide by the count, not
count-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TargetSpace, UsageError

EMPIRICAL_MODE = "empirical"


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


def aggregate(spaces: list[TargetSpace]) -> StructuralSummary:
    """Average the statistics of target spaces into an ensemble summary."""
    if not spaces:
        raise UsageError("cannot aggregate an empty list of target spaces")
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise UsageError("target spaces mix different widths n")
    sizes = np.array([len(s) for s in spaces], dtype=np.float64)
    return StructuralSummary(
        n=n,
        count=len(spaces),
        e_tsize=float(sizes.mean()),
        var_tsize=float(sizes.var()),
        e_profile=np.mean([s.mean_profile for s in spaces], axis=0),
        e_pair=np.mean([s.mean_pair for s in spaces], axis=0),
    )
