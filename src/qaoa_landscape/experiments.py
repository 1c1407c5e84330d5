"""Experiment drivers: landscape comparisons and the two-arm success study.

The non-iterative pipeline optimises angles once per problem on the
structural approximation and reuses them for every instance; the standard
pipeline optimises every instance on its own landscape.  Every measured shot
hits the target set with probability F1, so an arm's hit count is one
binomial draw at the exact closed-form F1, from the stream ``core.streams``
keys (id, arm); results do not depend on evaluation order.  Each driver
makes one ``landscape.form_z`` call: on every instance at the shared beta, or
on a lift's unit forms and the summary.  A two-arm report holds the study as
columns: the instance ids, and one row per arm of angles, F1 and hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_STATEVECTOR_WIDTH, Angles, AngleGrid, ComputationError, UsageError, streams
from .landscape import LandscapeForm, LandscapeGrid, form_z, z_f1
# unused here, but perfbench/test_harness.py checks that this module binds it
from .landscape import f1_closed  # noqa: F401
from .optimize import best_angles_all
from .problems import MAX_ALPHA, Ensemble, build_ensemble
from .structure import StructuralSummary, aggregate


# the fixed gamma of a landscape comparison's cross-section when none is given
DEFAULT_GAMMA_C = 1.2

# F1 may leave [0, 1] by rounding only; a larger excursion is a defect
_PROB_TOL = 1e-9

# the largest trial count that Generator.binomial takes (a C int64)
MAX_SHOTS = (1 << 63) - 1


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise UsageError(f"shots must be in [1, 2**63 - 1], got {shots}")


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

    With z a form's z at beta, s = form.scale and phi = exp(-i*gamma) - 1,
    an instance's bracket is c(gamma) . x(beta) with x = (1, Re z, Im z) and
    c = (1, -2 Re phi, 2 Im phi), and its F1 is c . (s*x).  x = L(beta) @ w
    is linear in w = (1, p, A), L's rows being e_0 and Re z, Im z of the 2n+2
    unit forms, so mean, spread and bound are lifts of the mean and covariance
    of s*w and w over the instances: no instance's z is formed.  One form_z
    call serves the unit forms and the summary, so the approximation has the
    bits f1 gives it.  The last gamma column is the cross-section at gamma_c.
    """
    spaces = [inst.target for inst in ensemble.instances]
    summary, n = aggregate(spaces), ensemble.n
    betas, gammas = grid.betas(), np.append(grid.gammas(), gamma_c)
    rows = np.array([np.concatenate(([form.scale, 1.0], form.profile, form.even))  # s, then w
                     for form in map(LandscapeForm.of, spaces)])  # only the rows outlive the forms
    units = np.eye(2 * n + 2).reshape(-1, 2, n + 1)  # (p, A) = (e_d, 0) or (0, e_t)
    forms = [*(LandscapeForm(n, 1.0, *unit) for unit in units), LandscapeForm.of(summary)]
    every_z = form_z(forms, betas)  # (2n + 3, beta): the unit forms, then the summary
    lift = np.zeros((len(betas), 3, 2 * n + 3))  # x = lift @ w at each beta
    lift[:, 0, 0], lift[:, 1, 1:], lift[:, 2, 1:] = 1.0, every_z[:-1].real.T, every_z[:-1].imag.T
    phi = np.exp(-1j * gammas) - 1.0
    c = np.stack([np.ones_like(gammas), -2.0 * phi.real, 2.0 * phi.imag], axis=-1)
    scaled = rows[:, :1] * rows[:, 1:]
    mean = lift @ scaled.mean(axis=0) @ c.T
    stddev = np.sqrt(_spread(lift, scaled, c))
    bound = np.sqrt(rows[:, 0].var() * _spread(lift, rows[:, 1:], c))
    approx = z_f1(forms[-1].scale, every_z[-1], gammas)
    mean_values = mean[:, :-1].ravel()
    approx_values = approx[:, :-1].ravel()

    cross = CrossSection(
        gamma_c=gamma_c,
        betas=betas,
        values=mean[:, -1],
        stddev=stddev[:, -1],
        approx=approx[:, -1],
    )
    return LandscapeComparison(
        summary=summary,
        mean=LandscapeGrid(grid=grid, values=mean_values, stddev=stddev[:, :-1].ravel()),
        approx=LandscapeGrid(grid=grid, values=approx_values),
        error=LandscapeGrid(grid=grid, values=np.abs(mean_values - approx_values)),
        bound=LandscapeGrid(grid=grid, values=bound[:, :-1].ravel()),
        cross_section=cross,
    )


def _spread(lift: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Population variance of c[g] . lift[b] @ rows[i] over i, at each (b, g).

    The covariance of the rows is centred first (two passes) and lifted to
    each beta, and a variance that rounding takes below 0 reads 0.
    """
    centred = rows - rows.mean(axis=0)
    cov = lift @ (centred.T @ centred / len(rows)) @ lift.transpose(0, 2, 1)
    return np.maximum(np.einsum("gj,bjk,gk->bg", c, cov, c), 0.0)


STANDARD_ARM = 0
NONITERATIVE_ARM = 1


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Two-arm study over one ensemble, held as columns over its instances.

    ids keeps the ensemble's order; betas, gammas, probs (the exact F1 at
    each arm's angles) and hits (its binomial draw) are (2, count) arrays
    with the STANDARD_ARM row first and the NONITERATIVE_ARM row second.
    """

    family: str
    n: int
    shots: int
    seed: int
    shared_angles: Angles  # the problem-global angles of the non-iterative arm
    shared_value: float  # approximation value at those angles
    ids: tuple[int, ...]  # Python ints: an id may exceed int64
    betas: np.ndarray
    gammas: np.ndarray
    probs: np.ndarray
    hits: np.ndarray

    # each arm's mean F1 and its population spread, over a contiguous row
    mean_standard = property(lambda self: float(self.probs[STANDARD_ARM].mean()))
    std_standard = property(lambda self: float(self.probs[STANDARD_ARM].std()))
    mean_noniterative = property(lambda self: float(self.probs[NONITERATIVE_ARM].mean()))
    std_noniterative = property(lambda self: float(self.probs[NONITERATIVE_ARM].std()))


def run_success_comparison(ensemble: Ensemble, shots: int, seed: int) -> ComparisonReport:
    """Per-instance optimisation against one problem-global optimisation.

    Each instance's form and their summary's are built once.  One batched
    search covers them; one form_z call at the shared beta and one z_f1
    call at the shared gamma then give every instance's F1 at the shared
    angles, with f1_closed's bits.
    """
    _check_shots(shots)
    spaces = [inst.target for inst in ensemble.instances]
    forms = [LandscapeForm.of(source) for source in (*spaces, aggregate(spaces))]
    *owns, shared = best_angles_all(forms)  # every instance, then the summary
    scales = np.array([form.scale for form in forms[:-1]])
    shared_z = form_z(forms[:-1], shared.angles.beta)
    ids = tuple(inst.id for inst in ensemble.instances)
    probs = np.array([[own.value for own in owns],  # each F1 at its own angles
                      z_f1(scales, shared_z, shared.angles.gamma)])
    bad = ~((probs >= -_PROB_TOL) & (probs <= 1.0 + _PROB_TOL))  # nan too; before any stream
    if bad.any():
        raise ComputationError(f"success probability {probs[bad][0].item()!r} is not in [0, 1]")
    keys = [(i, arm) for arm in (STANDARD_ARM, NONITERATIVE_ARM) for i in ids]
    draws = zip(streams(seed, keys), np.clip(probs, 0.0, 1.0).ravel().tolist())
    return ComparisonReport(
        family=ensemble.family,
        n=ensemble.n,
        shots=shots,
        seed=seed,
        shared_angles=shared.angles,
        shared_value=shared.value,
        ids=ids,
        betas=np.array([[own.angles.beta for own in owns], [shared.angles.beta] * len(owns)]),
        gammas=np.array([[own.angles.gamma for own in owns], [shared.angles.gamma] * len(owns)]),
        probs=probs,
        hits=np.array([rng.binomial(shots, p) for rng, p in draws], np.int64).reshape(2, -1),
    )


def run_sat_alpha(n: int, alphas: tuple[float, ...], count: int, shots: int, seed: int):
    """The two-arm study across SAT clause densities alpha = clauses / n.

    Returns one (alpha, ensemble, report) triple per density, with
    floor(alpha * n) clauses per instance; n must lie in
    [3, MAX_STATEVECTOR_WIDTH] and each alpha in (0, MAX_ALPHA].  Every
    density reuses the seed's streams: instance i draws its formula from
    (i,) and its shots from (i, arm).  Where both are first draws, a denser
    formula begins with a sparser one's, and the hits share random numbers.
    """
    _check_shots(shots)
    if not 3 <= n <= MAX_STATEVECTOR_WIDTH:  # 3-SAT clauses, and an exhaustive scan of 2^n
        raise UsageError(f"sat-alpha needs n in [3, {MAX_STATEVECTOR_WIDTH}], got n={n}")
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
