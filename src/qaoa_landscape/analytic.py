"""Closed-form profile statistics for uniformly drawn target spaces.

When T is a uniform random t-subset of {0,1}^n and k is one of its members,
the remaining t-1 targets are a uniform draw without replacement from the
other 2^n - 1 states.  The count of targets at distance d > 0 from k is then
hypergeometric over the C(n, d) states of that shell, and counts of two
shells are jointly multivariate hypergeometric.  Distance 0 always counts
exactly the reference itself.

Two moment conventions are provided, both the moments of one hypergeometric
model that differ only in (population, draws):

* ``paper``: (2^n, t), so first moments t * C(n, d) / 2^n and the
  without-replacement correction factor (2^n - t) / (2^n - 1);
* ``exact_hypergeometric``: (2^n - 1, t - 1), the distribution above, so
  first moments (t - 1) * C(n, d) / (2^n - 1).

The two agree as 2^n grows.  The probability mass functions are the exact
mode's in either mode, so only the exact mode matches their moments
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_WIDTH, UsageError, binomial, binomial_row
from .structure import EXACT_MODE, PAPER_MODE, StructuralSummary

MODES = (PAPER_MODE, EXACT_MODE)


@dataclass(frozen=True)
class UniformModel:
    """Uniform random target spaces of fixed size t_size over n bits."""

    n: int
    t_size: int
    mode: str = PAPER_MODE

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_WIDTH:
            raise UsageError(f"n must be in [1, {MAX_WIDTH}], got {self.n}")
        if not 1 <= self.t_size <= (1 << self.n):
            raise UsageError(f"t_size must be in [1, 2^n], got {self.t_size}")
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")


def _log_choose(a: float, b: float) -> float:
    if b < 0 or b > a:
        return -math.inf
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _pmf(model: UniformModel, shells: tuple[int, ...], counts: tuple[int, ...]) -> float:
    """Multivariate hypergeometric P(counts[i] of the draws in shell i, rest elsewhere).

    Shells are distinct distances d > 0 of a member reference; (population,
    draws) are the exact model's, whatever model.mode says.
    """
    population, draws = _population_draws(model.n, model.t_size, EXACT_MODE)
    rest, rest_draws, log_p = population, draws, 0.0
    for d, x in zip(shells, counts):
        size = binomial(model.n, d)
        log_p += _log_choose(size, x)
        rest, rest_draws = rest - size, rest_draws - x
    log_p += _log_choose(rest, rest_draws)
    return float(np.exp(log_p - _log_choose(population, draws)))


def pmf_single(model: UniformModel, d: int, x: int) -> float:
    """P(count at distance d equals x) for a member reference.

    Hypergeometric over shell size C(n, d); distance 0 is the point mass at 1.
    """
    if not 0 <= d <= model.n:
        raise UsageError(f"need 0 <= d <= n, got d={d}")
    if d == 0:
        return 1.0 if x == 1 else 0.0
    return _pmf(model, (d,), (x,))


def pmf_joint(model: UniformModel, d1: int, x1: int, d2: int, x2: int) -> float:
    """P(counts at distances d1 and d2 equal x1 and x2) jointly."""
    if not (0 <= d1 <= model.n and 0 <= d2 <= model.n):
        raise UsageError(f"need 0 <= d <= n, got d1={d1}, d2={d2}")
    if d1 == 0 or d2 == 0:
        # the distance-0 count is the constant 1, independent of everything
        return pmf_single(model, d1, x1) * pmf_single(model, d2, x2)
    if d1 == d2:
        return pmf_single(model, d1, x1) if x1 == x2 else 0.0
    return _pmf(model, (d1, d2), (x1, x2))


def _population_draws(n: int, t_size: int, mode: str) -> tuple[int, int]:
    """(population, draws) of the hypergeometric model behind a mode."""
    if mode == PAPER_MODE:
        return 1 << n, t_size
    return (1 << n) - 1, t_size - 1


def expected_profile(model: UniformModel) -> np.ndarray:
    """Expected distance profile of a member reference, length n+1."""
    population, draws = _population_draws(model.n, model.t_size, model.mode)
    profile = draws * binomial_row(model.n) / population
    profile[0] = 1.0
    return profile


def summary_analytic(model: UniformModel) -> StructuralSummary:
    """Structural summary predicted by the model (no sampling involved).

    e_pair = outer(p, p) + c * (diag(q) - outer(q, C(n, .)) / population):
    the hypergeometric covariance of the shell counts, with
    q = C(n, d) / population and c = draws (population - draws) / (population - 1).
    Distance 0 counts the reference alone, so row and column 0 carry no
    covariance.
    """
    profile = expected_profile(model)
    pair = np.outer(profile, profile)
    population, draws = _population_draws(model.n, model.t_size, model.mode)
    if population > 1:  # exact mode at n = 1 has no other state to draw
        c = draws * (population - draws) / (population - 1)
        row = binomial_row(model.n)
        q = row / population
        cov = np.outer(-c * q, row) / population
        np.fill_diagonal(cov, c * q * (1.0 - q))
        cov[0] = cov[:, 0] = 0.0
        pair += cov
    return StructuralSummary(
        n=model.n,
        count=0,
        e_tsize=float(model.t_size),
        var_tsize=0.0,
        e_profile=profile,
        e_pair=pair,
        mode=model.mode,
    )
