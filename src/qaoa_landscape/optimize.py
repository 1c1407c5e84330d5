"""Deterministic angle optimisation: coarse scan plus simplex refinement.

The canonical domain is beta in [0, pi), gamma in [0, 2*pi).  Every
landscape evaluated here repeats with beta period pi and gamma period 2*pi
(shifting beta by pi flips the sign of every amplitude factor, a global
phase), so the objective is evaluated at angles reduced into that domain and
results are reported there.  The whole procedure is derivative-free and free
of randomness: ties on the coarse grid break towards the lowest row-major
index, and the refinement is a fixed-coefficient Nelder-Mead simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Angles, ComputationError, TargetSpace, UsageError
from .landscape import approx_expected_f1, f1_closed
from .structure import StructuralSummary

BETA_PERIOD = math.pi
GAMMA_PERIOD = 2.0 * math.pi

# a simplex stops once its values spread and its diameter are both this small
VALUE_TOL = 1e-8
X_TOL = 1e-8

# classic Nelder-Mead coefficients
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


def reduce_angles(beta: float, gamma: float) -> tuple[float, float]:
    """Map angles into the canonical domain [0, pi) x [0, 2*pi)."""
    return beta % BETA_PERIOD, gamma % GAMMA_PERIOD


@dataclass(frozen=True)
class OptConfig:
    """Search parameters; the defaults suit every family in this package."""

    coarse_beta: int = 32
    coarse_gamma: int = 32
    refine_starts: int = 4
    max_evals: int = 10_000

    def __post_init__(self) -> None:
        if self.coarse_beta < 1 or self.coarse_gamma < 1:
            raise UsageError("coarse grid needs at least one point per axis")
        if self.refine_starts < 1:
            raise UsageError("need at least one refinement start")
        if self.max_evals < self.coarse_beta * self.coarse_gamma:
            raise UsageError("max_evals must cover at least the coarse scan")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best angles found, the objective value there, and the search cost."""

    angles: Angles
    value: float
    evaluations: int


class _Search:
    """Evaluation bookkeeping shared by the scan and the simplex runs."""

    def __init__(self, objective, config: OptConfig):
        self.objective = objective
        self.config = config
        self.evaluations = 0
        self.best_value = -math.inf
        self.best_angles: Angles | None = None

    def __call__(self, point) -> float:
        beta, gamma = reduce_angles(float(point[0]), float(point[1]))
        value = float(self.objective(beta, gamma))
        if not math.isfinite(value):
            raise ComputationError(f"objective returned {value} at beta={beta:g}, gamma={gamma:g}")
        self.evaluations += 1
        if value > self.best_value:
            self.best_value = value
            self.best_angles = Angles(beta, gamma)
        return value

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.config.max_evals


def _simplex(search: _Search, start: np.ndarray, steps: np.ndarray) -> None:
    """Maximising Nelder-Mead from one start; best point lands in search."""
    pts = [start.copy(), start + np.array([steps[0], 0.0]), start + np.array([0.0, steps[1]])]
    vals = [search(p) for p in pts]
    while not search.exhausted:
        order = sorted(range(3), key=lambda i: -vals[i])  # stable: ties keep insertion order
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        spread = vals[0] - vals[2]
        diameter = max(
            float(np.abs(pts[a] - pts[b]).max()) for a, b in ((0, 1), (0, 2), (1, 2))
        )
        if spread <= VALUE_TOL and diameter <= X_TOL:
            return
        centroid = (pts[0] + pts[1]) / 2.0
        reflected = centroid + _REFLECT * (centroid - pts[2])
        f_reflected = search(reflected)
        if f_reflected > vals[0]:
            if search.exhausted:
                return
            expanded = centroid + _EXPAND * (centroid - pts[2])
            f_expanded = search(expanded)
            if f_expanded > f_reflected:
                pts[2], vals[2] = expanded, f_expanded
            else:
                pts[2], vals[2] = reflected, f_reflected
        elif f_reflected > vals[1]:
            pts[2], vals[2] = reflected, f_reflected
        else:
            if search.exhausted:
                return
            contracted = centroid + _CONTRACT * (pts[2] - centroid)
            f_contracted = search(contracted)
            if f_contracted > vals[2]:
                pts[2], vals[2] = contracted, f_contracted
            else:
                for i in (1, 2):  # shrink towards the best vertex
                    if search.exhausted:
                        return
                    pts[i] = pts[0] + _SHRINK * (pts[i] - pts[0])
                    vals[i] = search(pts[i])


def maximize(objective, config: OptConfig = OptConfig()) -> OptResult:
    """Maximise objective(beta, gamma) over the canonical angle domain.

    A coarse lattice scan picks the refine_starts highest cells (ties to the
    lowest row-major index), each seeds one simplex refinement, and the best
    evaluation ever made wins.  The reported value is the objective's own
    output at the reported angles.
    """
    search = _Search(objective, config)
    betas = BETA_PERIOD * np.arange(config.coarse_beta) / config.coarse_beta
    gammas = GAMMA_PERIOD * np.arange(config.coarse_gamma) / config.coarse_gamma
    coarse_vals = np.empty(config.coarse_beta * config.coarse_gamma)
    coarse_pts = np.empty((coarse_vals.size, 2))
    i = 0
    for b in betas:
        for g in gammas:
            coarse_pts[i] = (b, g)
            coarse_vals[i] = search((b, g))
            i += 1
    order = np.argsort(-coarse_vals, kind="stable")
    steps = np.array(
        [
            BETA_PERIOD / config.coarse_beta / 2.0,
            GAMMA_PERIOD / config.coarse_gamma / 2.0,
        ]
    )
    for idx in order[: config.refine_starts]:
        if search.exhausted:
            break
        _simplex(search, coarse_pts[idx].copy(), steps)
    assert search.best_angles is not None
    return OptResult(
        angles=search.best_angles, value=search.best_value, evaluations=search.evaluations
    )


def optimize_instance(space: TargetSpace, config: OptConfig = OptConfig()) -> OptResult:
    """Best angles for one instance's own exact landscape."""
    return maximize(lambda beta, gamma: f1_closed(space, beta, gamma), config)


def optimize_problem(summary: StructuralSummary, config: OptConfig = OptConfig()) -> OptResult:
    """Problem-global angles from the structural approximation alone."""
    if summary.e_tsize <= 0 or not np.any(summary.e_profile):
        raise UsageError("summary has no mass: nothing to optimise")
    return maximize(lambda beta, gamma: approx_expected_f1(summary, beta, gamma), config)
