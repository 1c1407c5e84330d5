"""Experiment drivers: landscape comparisons and the two-arm success study.

The non-iterative pipeline optimises angles once per problem on the
structural approximation and reuses them for every instance; the standard
pipeline optimises every instance on its own landscape.  Every measured shot
hits the target set with probability F1, so an arm's hit count is one
binomial draw at the exact closed-form F1, from an independent RNG stream per
(instance, arm); results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Angles, AngleGrid, ComputationError, TargetSpace, UsageError
from .landscape import LandscapeForm, LandscapeGrid, error_bound, f1, f1_closed, form_bracket
from .optimize import best_angles_all
from .problems import MAX_ALPHA, Ensemble, build_ensemble
from .structure import StructuralSummary, aggregate


# the fixed gamma of a landscape comparison's cross-section when none is given
DEFAULT_GAMMA_C = 1.2

# F1 may leave [0, 1] by rounding only; a larger excursion is a defect
_PROB_TOL = 1e-9

# the largest trial count that Generator.binomial takes (a C int64)
MAX_SHOTS = (1 << 63) - 1


def shot_rng(seed: int, instance_id: int, arm: int) -> np.random.Generator:
    """The sampling stream owned by one instance under one pipeline arm."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(instance_id, arm))
    )


def sample_shots(
    space: TargetSpace, angles: Angles, shots: int, rng: np.random.Generator
) -> int:
    """Number of target hits among `shots` measurements of the prepared state.

    Each measurement hits the target set with probability F1, independently,
    so the count is one Binomial(shots, F1) draw, with F1 from the closed
    form; no statevector is built, so any width the form supports works.
    """
    _check_shots(shots)
    return _draw_hits(f1_closed(space, angles.beta, angles.gamma), shots, rng)


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise UsageError(f"shots must be in [1, 2**63 - 1], got {shots}")


def _draw_hits(prob: float, shots: int, rng: np.random.Generator) -> int:
    """One Binomial(shots, prob) draw at an F1 already in hand; shots >= 1."""
    if not -_PROB_TOL <= prob <= 1.0 + _PROB_TOL:
        raise ComputationError(f"success probability {prob!r} is not in [0, 1]")
    return int(rng.binomial(shots, min(max(prob, 0.0), 1.0)))


@dataclass(frozen=True, eq=False)
class CrossSection:
    """A fixed-gamma slice: per-beta ensemble mean, spread and approximation."""

    gamma_c: float
    betas: np.ndarray
    values: np.ndarray  # ensemble mean F1 per beta
    stddev: np.ndarray
    approx: np.ndarray


@dataclass(frozen=True, eq=False)
class LandscapeComparison:
    """Grids of the empirical mean landscape against the approximation."""

    summary: StructuralSummary
    mean: LandscapeGrid  # carries the per-point population stddev
    approx: LandscapeGrid
    error: LandscapeGrid  # |mean - approx|
    bound: LandscapeGrid  # per-point Cauchy-Schwarz bound on the error
    cross_section: CrossSection


def run_landscape_comparison(
    ensemble: Ensemble, grid: AngleGrid, gamma_c: float = DEFAULT_GAMMA_C
) -> LandscapeComparison:
    """Empirical mean landscape vs the structural approximation on one grid.

    Each instance is evaluated through its own form and the summary through
    f1, so the approximation has the bits that f1 gives the summary alone.
    The last gamma column is the cross-section at gamma_c.
    """
    spaces = [inst.target for inst in ensemble.instances]
    summary = aggregate(spaces)
    betas, gammas = grid.betas(), np.append(grid.gammas(), gamma_c)
    forms = [LandscapeForm.of(space) for space in spaces]
    scales = np.array([form.scale for form in forms])
    bracket = np.array([form_bracket(form, betas, gammas) for form in forms])
    spread = scales[:, None, None] * bracket  # as f1 scales each source
    approx = f1(summary, betas, gammas)
    mean_values = spread[..., :-1].mean(axis=0).ravel()
    std_values = spread[..., :-1].std(axis=0).ravel()
    approx_values = approx[:, :-1].ravel()
    bound_values = error_bound(scales, bracket[..., :-1]).ravel()

    section = spread[..., -1]
    cross = CrossSection(
        gamma_c=gamma_c,
        betas=betas,
        values=section.mean(axis=0),
        stddev=section.std(axis=0),
        approx=approx[:, -1],
    )
    return LandscapeComparison(
        summary=summary,
        mean=LandscapeGrid(grid=grid, values=mean_values, stddev=std_values),
        approx=LandscapeGrid(grid=grid, values=approx_values),
        error=LandscapeGrid(grid=grid, values=np.abs(mean_values - approx_values)),
        bound=LandscapeGrid(grid=grid, values=bound_values),
        cross_section=cross,
    )


@dataclass(frozen=True, eq=False)
class ArmOutcome:
    """One instance's result under one pipeline arm."""

    angles: Angles
    success_prob: float  # exact F1 at the arm's angles
    shots_hit: int


@dataclass(frozen=True, eq=False)
class InstanceComparison:
    id: int
    standard: ArmOutcome
    noniterative: ArmOutcome


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Two-arm study over one ensemble."""

    family: str
    n: int
    shots: int
    seed: int
    shared_angles: Angles  # the problem-global angles of the non-iterative arm
    shared_value: float  # approximation value at those angles
    records: tuple[InstanceComparison, ...]
    mean_standard: float
    std_standard: float
    mean_noniterative: float
    std_noniterative: float


STANDARD_ARM = 0
NONITERATIVE_ARM = 1


def run_success_comparison(ensemble: Ensemble, shots: int, seed: int) -> ComparisonReport:
    """Per-instance optimisation against one problem-global optimisation.

    One batched search covers every instance and, last, their summary.
    """
    _check_shots(shots)
    spaces = [inst.target for inst in ensemble.instances]
    *owns, shared = best_angles_all([*spaces, aggregate(spaces)])

    records = []
    for inst, own in zip(ensemble.instances, owns):
        space = inst.target
        standard = ArmOutcome(
            angles=own.angles,
            success_prob=own.value,  # F1 at own.angles
            shots_hit=_draw_hits(own.value, shots, shot_rng(seed, inst.id, STANDARD_ARM)),
        )
        prob = f1_closed(space, shared.angles.beta, shared.angles.gamma)
        noniterative = ArmOutcome(
            angles=shared.angles,
            success_prob=prob,
            shots_hit=_draw_hits(prob, shots, shot_rng(seed, inst.id, NONITERATIVE_ARM)),
        )
        records.append(InstanceComparison(inst.id, standard, noniterative))

    std_probs = np.array([r.standard.success_prob for r in records])
    non_probs = np.array([r.noniterative.success_prob for r in records])
    return ComparisonReport(
        family=ensemble.family,
        n=ensemble.n,
        shots=shots,
        seed=seed,
        shared_angles=shared.angles,
        shared_value=shared.value,
        records=tuple(records),
        mean_standard=float(std_probs.mean()),
        std_standard=float(std_probs.std()),
        mean_noniterative=float(non_probs.mean()),
        std_noniterative=float(non_probs.std()),
    )


def run_sat_alpha(n: int, alphas: tuple[float, ...], count: int, shots: int, seed: int):
    """The two-arm study across SAT clause densities alpha = clauses / n.

    Returns one (alpha, ensemble, report) triple per density, with
    floor(alpha * n) clauses per instance; each alpha must lie in
    (0, MAX_ALPHA].
    """
    _check_shots(shots)
    if not alphas:
        raise UsageError("need at least one alpha")
    for alpha in alphas:
        if not 0.0 < alpha <= MAX_ALPHA:  # false for nan too
            raise UsageError(f"alpha must be in (0, {MAX_ALPHA:g}], got {alpha!r}")
    results = []
    for alpha in alphas:
        num_clauses = int(alpha * n)
        if num_clauses < 1:
            raise UsageError(f"alpha {alpha} yields no clauses at n={n}")
        ensemble = build_ensemble("sat", n, count, {"num_clauses": num_clauses}, seed)
        report = run_success_comparison(ensemble, shots, seed)
        results.append((alpha, ensemble, report))
    return results
