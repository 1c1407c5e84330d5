"""Slower oracles for landscape evaluation.

``f_n`` is one mixer factor fn_d in scalar arithmetic: the oracle of
``landscape.fn_matrix``.

``quadratic_z`` is the (n+1)x(n+1) contraction that ``landscape.form_z``
replaces: q = Re(fn^T Q conj(fn)) at O(n^2) per beta, read straight from a
source's mean pair matrix Q, so it shares nothing with the form's
even-diagonal sums A.

``lone_z`` is ``form_z`` for one form, written out: fn built for that form
alone, then the same operations in the same order.  Every row of a stacked
``form_z`` call, whatever the stack, must give its bits.

``compare`` checks the ensemble comparison.
``experiments.run_landscape_comparison`` reads the mean, spread and error
bound of an ensemble off the mean and covariance over its instances of
w = (1, p, A) and s*w, lifted to each beta through the z of unit forms: it
forms no instance's z and no per-instance grid.  ``compare`` forms them:
every instance's F1 on the whole lattice through ``landscape.f1``, then
``np.mean`` and ``np.std`` over the instances, and the Cauchy-Schwarz bound
sqrt(Var(s) * Var(bracket)) with s = |T|/2^n and bracket = F1 / s.  Its
memory grows with count * beta_steps * gamma_steps, so it is for small
ensembles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qaoa_landscape.core import UsageError
from qaoa_landscape.landscape import f1, fn_matrix
from qaoa_landscape.structure import StructuralSummary, aggregate


def f_n(beta: float, d: int, n: int) -> complex:
    """cos(beta)^(n-d) * (-i*sin(beta))^d for one d, in scalar arithmetic."""
    if not 0 <= d <= n:
        raise UsageError(f"need 0 <= d <= n, got d={d}, n={n}")
    return math.cos(beta) ** (n - d) * (-1j * math.sin(beta)) ** d


def statistics(source) -> tuple[np.ndarray, np.ndarray]:
    """The mean profile p and mean pair matrix Q of a target space or summary."""
    if isinstance(source, StructuralSummary):
        return source.e_profile, source.e_pair
    return source.mean_pair[0], source.mean_pair


def lone_z(form, betas) -> np.ndarray:
    """z = |fn|^2 . A - exp(i*beta*n) * p . fn, with fn built for this call alone."""
    fn = fn_matrix(betas, form.n)
    quad = (fn.real**2 + fn.imag**2) @ form.even
    return quad - np.exp(1j * form.n * np.asarray(betas)) * (form.profile @ fn.T)


def quadratic_z(source, betas) -> np.ndarray:
    """z = Re(fn^T Q conj(fn)) - exp(i*beta*n) * p . fn at each beta."""
    profile, pair = statistics(source)
    fn = fn_matrix(betas, source.n)
    quad = ((fn @ pair) * fn.conj()).sum(axis=-1)
    return quad.real - np.exp(1j * source.n * np.asarray(betas)) * (profile @ fn.T)


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
