"""Deterministic angle optimisation over depth-1 landscapes.

``best_angles_all`` is the search every command runs, over one or more
landscapes of one width n, and ``best_angles`` is its one-source case.  For
fixed beta the bracket of a landscape is
1 + 2 Re z - 2 (Re z cos(gamma) + Im z sin(gamma)) with z = z(beta) from
``landscape.form_z``, so the best gamma is atan2(-Im z, -Re z) and the best
value scale * (1 + 2 Re z + 2|z|).  Every landscape also satisfies
F1(pi - beta, 2*pi - gamma) = F1(beta, gamma), so the search is one scan of
beta over [0, pi/2] and a refinement of its best cell.  z is a Laurent
polynomial of degree n in w = exp(2i*beta), so the search takes its 2n+1
coefficients a_k from z at 2n+1 betas (``landscape.form_coefficients``); one
inverse FFT then gives z at every scan beta.  z' and z'' have coefficients
2i*k*a_k and (2i*k)^2 a_k, so the peak's exact slope and its derivative cost
O(n) at any beta, as z does; the refinement brackets the best cell by the
slope's sign and takes Newton steps inside the bracket, which end where 52
bisections would, in 4 to 6 steps on the families here.  Landscapes go through
in blocks of _SEARCH_BLOCK, each block's coefficients in one call and its
refinement stepped at once, so memory stays one block's; every step is per
landscape, so each keeps the bits it has alone.

``maximize`` is the older generic 2-D search over the canonical domain
beta in [0, pi), gamma in [0, 2*pi): a coarse lattice scan, ties to the
lowest row-major index, then a compass search from each of the best cells.
A compass search tries one step up and one down along each axis, moves to
the first point that is strictly higher and halves its steps when none is
(Kolda, Lewis and Torczon, SIAM Review 45(3), 2003); it has no tuning
coefficients.  It and ``optimize_instance`` stay as the slower 2-D oracle
for ``best_angles``: acceptance criterion 11 and the optimiser tests call
``maximize``, and ``perfbench`` traces ``optimize_instance`` and takes the
dense workload's per-instance F1 gain from it.  Every landscape repeats with
beta period pi and gamma period 2*pi (shifting beta by pi flips the sign of
every amplitude factor, a global phase), so it evaluates the objective at
angles reduced into that domain and reports them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Angles, ComputationError, TargetSpace, UsageError
from .landscape import (
    LandscapeForm, coefficient_scan, coefficient_z, f1_closed, form_coefficients, form_z,
    wave_numbers, z_f1,
)
from .structure import StructuralSummary

BETA_PERIOD = math.pi
GAMMA_PERIOD = 2.0 * math.pi

# best_angles scans 64n+1 evenly spaced betas over [0, pi/2] ...
BETA_SCAN_END = math.pi / 2.0
SCAN_CELLS_PER_QUBIT = 64
# ... and refines the best in at most this many steps: enough halvings to reach float resolution
BETA_STEP_CAP = 52
# sources searched together: their coefficients and the refinement's arrays are one block's
_SEARCH_BLOCK = 256

# a compass search stops once both its steps are this small
X_TOL = 1e-8


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


# best_angles_all's result where F1 = 1 at every angle: the tie to beta 0, gamma 0, unsearched
_FLAT = OptResult(Angles(0.0, 0.0), 1.0, 0)


def maximize(objective, config: OptConfig = OptConfig()) -> OptResult:
    """Maximise objective(beta, gamma) over the canonical angle domain.

    A coarse lattice scan picks the refine_starts highest cells (ties to the
    lowest row-major index).  From each, a compass search starts with steps
    of half a cell, tries beta + step, beta - step, gamma + step and
    gamma - step in that order, moves to the first point strictly higher
    than the current one, and halves both steps when none is; it stops once
    both steps are at most X_TOL or max_evals objective calls are spent.
    The best evaluation ever made wins, the first of equals; its value is
    the objective's own output and evaluations counts every call.
    """
    evaluations, best_value, best_angles = 0, -math.inf, None

    def evaluate(beta: float, gamma: float) -> float:
        nonlocal evaluations, best_value, best_angles
        beta, gamma = beta % BETA_PERIOD, gamma % GAMMA_PERIOD  # into the canonical domain
        value = float(objective(beta, gamma))
        if not math.isfinite(value):
            raise ComputationError(f"objective returned {value} at beta={beta:g}, gamma={gamma:g}")
        evaluations += 1
        if value > best_value:
            best_value, best_angles = value, Angles(beta, gamma)
        return value

    betas = BETA_PERIOD * np.arange(config.coarse_beta) / config.coarse_beta
    gammas = GAMMA_PERIOD * np.arange(config.coarse_gamma) / config.coarse_gamma
    cells = [(b, g) for b in betas.tolist() for g in gammas.tolist()]
    values = [evaluate(b, g) for b, g in cells]
    for idx in np.argsort(-np.array(values), kind="stable")[: config.refine_starts]:
        (beta, gamma), value = cells[idx], values[idx]
        step_b = BETA_PERIOD / config.coarse_beta / 2.0
        step_g = GAMMA_PERIOD / config.coarse_gamma / 2.0
        while max(step_b, step_g) > X_TOL and evaluations < config.max_evals:
            moves = ((beta + step_b, gamma), (beta - step_b, gamma),
                     (beta, gamma + step_g), (beta, gamma - step_g))
            for b, g in moves:
                if evaluations == config.max_evals:
                    break
                candidate = evaluate(b, g)
                if candidate > value:
                    beta, gamma, value = b, g, candidate
                    break
            else:
                step_b, step_g = step_b / 2.0, step_g / 2.0
    return OptResult(best_angles, best_value, evaluations)


def _peak(z):
    """The bracket maximised over gamma, at each z."""
    return 2.0 * (z.real + abs(z)) + 1.0


def _best_gamma(z: complex) -> float:
    """The gamma where the bracket peaks at z, in [0, 2*pi); 0 when all tie (z == 0)."""
    if z == 0:
        return 0.0
    gamma = math.atan2(-z.imag, -z.real) % GAMMA_PERIOD
    return gamma if gamma < GAMMA_PERIOD else 0.0  # a tiny negative angle rounds up to 2*pi


def best_angles_all(sources) -> tuple[OptResult, ...]:
    """Best depth-1 angles of each target space or summary, in order.

    All sources share one width n.  For each, scans 64n+1 evenly spaced betas
    over [0, pi/2] with gamma at its closed-form best (module docstring),
    takes the best beta (ties to the lowest) and refines it over its
    neighbouring cells, clipped to [0, pi/2].  Each step evaluates a beta x,
    first the midpoint, which replaces the lower end where the peak
    1 + 2 Re z + 2|z| strictly rises there and the upper end elsewhere (z == 0
    does not rise); the next x is the Newton point of that slope, at least one
    float inside the bracket, or the midpoint where the Newton point lies
    outside, is NaN or lay on an end the step before.  A source stops once its
    ends are adjacent floats or after BETA_STEP_CAP steps, and the bracket's
    midpoint is kept only if it peaks strictly higher than the scan.
    gamma is atan2(-Im z, -Re z) mod 2*pi, or 0 where z == 0.  The angles lie
    in [0, pi/2] x [0, 2*pi); value is f1 at them and evaluations counts the
    betas evaluated, 64n+1 + the source's steps + 1.  A form of scale 1 (a full
    target space, or a summary with e_tsize = 2^n) has F1 = 1 at every angle, so
    it is not searched: it takes the tie, beta 0 and gamma 0, value 1 and
    evaluations 0.  Each result is the one best_angles gives for its source
    alone, to the bit.  A source may be passed as its built LandscapeForm.
    """
    forms = [s if isinstance(s, LandscapeForm) else LandscapeForm.of(s) for s in sources]
    if not forms or any(form.n != forms[0].n for form in forms):
        raise UsageError("need one or more landscape sources of one width n")
    searched = [form for form in forms if form.scale != 1.0]
    found = (result for start in range(0, len(searched), _SEARCH_BLOCK)
             for result in _searched(searched[start : start + _SEARCH_BLOCK]))
    return tuple(_FLAT if form.scale == 1.0 else next(found) for form in forms)


def _searched(forms: list[LandscapeForm]) -> list[OptResult]:
    """best_angles_all's scan and refinement of each of one block of forms, in order."""
    coeffs = form_coefficients(forms)
    cells = SCAN_CELLS_PER_QUBIT * forms[0].n
    betas = BETA_SCAN_END * np.arange(cells + 1) / cells
    # row by row, keeping each row's first maximum (the lowest beta) and its peak, so
    # neither the transform's temporaries nor the scan kept grow with the ensemble
    best, top = np.empty(len(forms), dtype=int), np.empty(len(forms))
    for i, row in enumerate(coeffs):
        peaks = _peak(coefficient_scan(row, 2 * cells)[: cells + 1])
        if not np.isfinite(peaks).all():
            raise ComputationError("landscape is not finite on the beta scan")
        best[i] = np.argmax(peaks)
        top[i] = peaks[best[i]]
    lo, hi = betas[np.maximum(best - 1, 0)], betas[np.minimum(best + 1, cells)]
    # z^(j) = sum (2i*k)^j a_k w^k, so one coefficient_z call gives z, z' and z''
    ik = wave_numbers(coeffs.shape[-1])
    stack = np.stack([coeffs, coeffs * ik, coeffs * ik * ik])
    x, steps = (lo + hi) / 2.0, np.zeros(len(forms), dtype=int)
    active, on_end = np.ones(len(forms), dtype=bool), np.zeros(len(forms), dtype=bool)
    with np.errstate(all="ignore"):  # z == 0 or G' == 0 gives no Newton point
        for _ in range(BETA_STEP_CAP):
            z, dz, ddz = coefficient_z(stack, x)
            size, turn = abs(z), (z.conj() * dz).real
            slope = dz.real * size + turn  # G, the peak's slope times |z|/2
            curve = ddz.real * size + dz.real * turn / size + abs(dz) ** 2 + (z.conj() * ddz).real
            rising = slope > 0.0
            lo, hi = np.where(active & rising, x, lo), np.where(active & ~rising, x, hi)
            steps += active
            newton, mid = x - slope / curve, (lo + hi) / 2.0
            inside = (lo <= newton) & (newton <= hi) & ~on_end  # False at NaN, and once after an end
            on_end = inside & ((newton == lo) | (newton == hi))
            x = np.where(inside, np.clip(newton, np.nextafter(lo, hi), np.nextafter(hi, lo)), mid)
            active &= (mid != lo) & (mid != hi)
            if not active.any():
                break
    refined = (lo + hi) / 2.0
    higher = _peak(coefficient_z(coeffs, refined)) > top
    beta = np.where(higher, refined, betas[best])
    zs = coefficient_z(coeffs, beta)
    results = []
    for form, b, z, count in zip(forms, beta.tolist(), zs, steps.tolist()):
        gamma = _best_gamma(complex(z))
        value = float(z_f1(form.scale, form_z([form], b)[0], gamma))  # f1 of the source
        results.append(OptResult(Angles(b, gamma), value, betas.size + count + 1))
    return results


def best_angles(source: TargetSpace | StructuralSummary) -> OptResult:
    """Best depth-1 angles of one target space, or of a summary's approximation.

    The one-source case of best_angles_all, which documents the search.
    """
    (result,) = best_angles_all([source])
    return result


def optimize_instance(space: TargetSpace, config: OptConfig = OptConfig()) -> OptResult:
    """Best angles for one instance's own exact landscape, by the 2-D search.

    The slower oracle for best_angles(space), which every command uses.
    """
    return maximize(lambda beta, gamma: f1_closed(space, beta, gamma), config)

