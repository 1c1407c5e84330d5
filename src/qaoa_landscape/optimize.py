"""Deterministic angle optimisation over depth-1 landscapes.

``best_angles`` is the search every command runs.  For fixed beta the
bracket of a landscape is 1 + 2 Re z - 2 (Re z cos(gamma) + Im z sin(gamma))
with z = z(beta) from ``landscape.form_z``, so the best gamma is
atan2(-Im z, -Re z) and the best value scale * (1 + 2 Re z + 2|z|).  Every
landscape also satisfies F1(pi - beta, 2*pi - gamma) = F1(beta, gamma), so
the search is one scan of beta over [0, pi/2] and a golden-section
refinement of its best cell.

``maximize`` is the older generic 2-D search over the canonical domain
beta in [0, pi), gamma in [0, 2*pi): a coarse lattice scan, ties to the
lowest row-major index, then a fixed-coefficient Nelder-Mead simplex.  It
and ``optimize_instance`` stay as the slower 2-D oracle for ``best_angles``:
acceptance criterion 11 and the optimiser tests call ``maximize``, and
``perfbench`` traces ``optimize_instance`` and takes the dense workload's
per-instance F1 gain from it.  Every landscape repeats with
beta period pi and gamma period 2*pi (shifting beta by pi flips the sign of
every amplitude factor, a global phase), so it evaluates the objective at
angles reduced into that domain and reports them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Angles, ComputationError, TargetSpace, UsageError
from .landscape import LandscapeForm, f1, f1_closed, form_z
from .structure import StructuralSummary

BETA_PERIOD = math.pi
GAMMA_PERIOD = 2.0 * math.pi

# best_angles scans 64n+1 evenly spaced betas over [0, pi/2] ...
BETA_SCAN_END = math.pi / 2.0
SCAN_CELLS_PER_QUBIT = 64
# ... at most this many per form_z call, so its (betas x (n+1)) temporaries stay small
SCAN_BLOCK = 256
# ... and refines the best one until its bracketing interval is this narrow
BETA_TOL = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def _peak(z: np.ndarray) -> np.ndarray:
    """The bracket maximised over gamma, at each z."""
    return 1.0 + 2.0 * z.real + 2.0 * np.abs(z)


def _best_gamma(z: complex) -> float:
    """The gamma where the bracket peaks at z, in [0, 2*pi); 0 when all tie (z == 0)."""
    if z == 0:
        return 0.0
    gamma = math.atan2(-z.imag, -z.real) % GAMMA_PERIOD
    return gamma if gamma < GAMMA_PERIOD else 0.0  # a tiny negative angle rounds up to 2*pi


def _golden(peak_at, lo: float, hi: float) -> tuple[float, float, int]:
    """Golden-section maximum of peak_at on [lo, hi]: (beta, peak, evaluations)."""
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = peak_at(c), peak_at(d)
    evaluations = 2
    while hi - lo > BETA_TOL:
        if fc >= fd:  # ties keep the lower part
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = peak_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = peak_at(d)
        evaluations += 1
    return (c, fc, evaluations) if fc >= fd else (d, fd, evaluations)


def best_angles(source: TargetSpace | StructuralSummary) -> OptResult:
    """Best depth-1 angles of one target space, or of a summary's approximation.

    Scans 64n+1 evenly spaced betas over [0, pi/2] with gamma at its
    closed-form best (module docstring), takes the best beta (ties to the
    lowest) and refines it by golden-section search over its neighbouring
    cells to BETA_TOL; the refinement is kept only if it peaks strictly
    higher.  gamma is atan2(-Im z, -Re z) mod 2*pi, or 0 where z == 0.  The
    angles lie in [0, pi/2] x [0, 2*pi); value is f1 at them and evaluations
    counts the betas evaluated.
    """
    form = LandscapeForm.of(source)
    cells = SCAN_CELLS_PER_QUBIT * form.n
    betas = BETA_SCAN_END * np.arange(cells + 1) / cells
    peaks = np.concatenate(
        [_peak(form_z(form, betas[i : i + SCAN_BLOCK])) for i in range(0, betas.size, SCAN_BLOCK)]
    )
    if not np.isfinite(peaks).all():
        raise ComputationError("landscape is not finite on the beta scan")
    best = int(np.argmax(peaks))  # the first maximum: the lowest beta
    refined, peak, evaluations = _golden(
        lambda b: float(_peak(form_z(form, b))),
        float(betas[max(best - 1, 0)]),
        float(betas[min(best + 1, cells)]),
    )
    beta = refined if peak > peaks[best] else float(betas[best])
    gamma = _best_gamma(complex(form_z(form, beta)))
    value = float(f1(source, beta, gamma))
    return OptResult(Angles(beta, gamma), value, evaluations=betas.size + evaluations + 1)


def optimize_instance(space: TargetSpace, config: OptConfig = OptConfig()) -> OptResult:
    """Best angles for one instance's own exact landscape, by the 2-D search.

    The slower oracle for best_angles(space), which every command uses.
    """
    return maximize(lambda beta, gamma: f1_closed(space, beta, gamma), config)


def optimize_problem(summary: StructuralSummary) -> OptResult:
    """Problem-global angles from the structural approximation alone."""
    if summary.e_tsize <= 0 or not np.any(summary.e_profile):
        raise UsageError("summary has no mass: nothing to optimise")
    return best_angles(summary)
