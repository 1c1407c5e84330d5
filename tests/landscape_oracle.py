"""Per-instance oracle for the ensemble landscape comparison.

``experiments.run_landscape_comparison`` reads the mean, spread and error
bound of an ensemble off per-beta moments, without forming any per-instance
grid.  This module forms them: every instance's F1 on the whole lattice
through ``landscape.f1``, then ``np.mean`` and ``np.std`` over the
instances, and the Cauchy-Schwarz bound sqrt(Var(s) * Var(bracket)) with
s = |T|/2^n and bracket = F1 / s.  Its memory grows with
count * beta_steps * gamma_steps, so it is for small ensembles only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qaoa_landscape.landscape import f1
from qaoa_landscape.structure import aggregate


@dataclass(frozen=True)
class OracleComparison:
    mean: np.ndarray  # (beta, gamma), and likewise below
    stddev: np.ndarray
    approx: np.ndarray
    error: np.ndarray
    bound: np.ndarray
    cross: np.ndarray  # (beta,): the mean at gamma_c
    cross_stddev: np.ndarray


def error_bound(scales, brackets) -> np.ndarray:
    """sqrt(Var(s) * Var(bracket)) over the leading (instance) axis."""
    return np.sqrt(np.var(scales) * np.var(brackets, axis=0))


def compare(ensemble, grid, gamma_c: float) -> OracleComparison:
    spaces = [inst.target for inst in ensemble.instances]
    betas, gammas = grid.betas(), np.append(grid.gammas(), gamma_c)
    scales = np.array([len(space) / (1 << space.n) for space in spaces])
    values = np.array([f1(space, betas, gammas) for space in spaces])
    mean, stddev = values.mean(axis=0), values.std(axis=0)
    approx = f1(aggregate(spaces), betas, gammas)
    bound = error_bound(scales, values / scales[:, None, None])
    return OracleComparison(
        mean=mean[:, :-1],
        stddev=stddev[:, :-1],
        approx=approx[:, :-1],
        error=np.abs(mean - approx)[:, :-1],
        bound=bound[:, :-1],
        cross=mean[:, -1],
        cross_stddev=stddev[:, -1],
    )
