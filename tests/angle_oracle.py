"""Exact oracle for the depth-1 angle search: stationary points as polynomial roots.

At fixed beta a landscape peaks over gamma at scale * g(beta), with
g = 1 + 2u + 2|z| and z = u + iv from ``landscape.form_z``.  Where z != 0,
g' = 0 implies v * (u'^2 v - 2 u u' v' - v v'^2) = 0; where z == 0, g = 1 is
its least value.  With w = exp(2i*beta) and x = exp(i*beta),
x^n fn_d = P_d(w) = 2^-n (1 + w)^(n-d) (1 - w)^d, so

    z = sum_{d,d'} Q[d, d'] P_d(w) P_d'(1/w) - sum_d p_d P_d(w)

is a Laurent polynomial of degree n in w, built here from that binomial
expansion rather than from samples of form_z.  Both factors above are then
Laurent polynomials of degrees n and 3n, and the global maximum over beta
lies at one of their unit-circle roots.  Each root is evaluated through
form_z and given a parabolic polish.  This costs milliseconds per source: it
checks the search, it is not a route for it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from qaoa_landscape.landscape import LandscapeForm, form_z

# roots this close to the unit circle are taken as real betas
CIRCLE_TOL = 1e-4
# the half-width of the parabolic polish, and how often it is applied
POLISH_STEP = 1e-6
POLISH_ROUNDS = 2


def laurent_z(form: LandscapeForm) -> np.ndarray:
    """Coefficients of z in w for powers -n..n, from the binomial expansion."""
    n = form.n
    mixer = np.array(
        [P.polymul(P.polypow([1.0, 1.0], n - d), P.polypow([1.0, -1.0], d)) for d in range(n + 1)]
    ) / 2.0**n  # mixer[d, i]: the w^i coefficient of P_d
    outer = mixer.T @ form.pair @ mixer  # the w^(i - j) coefficient of q, at [i, j]
    z = np.array([np.trace(outer, offset=-k) for k in range(-n, n + 1)], dtype=np.complex128)
    z[n:] -= form.profile @ mixer
    return z


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """d/dbeta of a Laurent polynomial in w = exp(2i*beta), powers -m..m."""
    m = coeffs.size // 2
    return 2j * np.arange(-m, m + 1) * coeffs


def _unit_circle_betas(coeffs: np.ndarray) -> list[float]:
    """Betas in [0, pi/2] where w = exp(2i*beta) is a root; the mirror of a
    beta in (pi/2, pi) stands for it, as the peak has that symmetry."""
    trimmed = np.trim_zeros(coeffs)
    if trimmed.size < 2:
        return []
    roots = np.roots(trimmed[::-1])  # highest power first
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < CIRCLE_TOL]
    betas = (np.angle(on_circle) / 2.0) % math.pi
    return [float(min(b, math.pi - b)) for b in betas]


def _peak(form: LandscapeForm, beta: float) -> float:
    z = complex(form_z(form, beta))
    return float(form.scale * (1.0 + 2.0 * z.real + 2.0 * abs(z)))


def _polish(form: LandscapeForm, beta: float) -> float:
    """The best value at beta after parabolic steps through beta -/+ POLISH_STEP."""
    best = _peak(form, beta)
    for _ in range(POLISH_ROUNDS):
        left, mid, right = (_peak(form, beta + s) for s in (-POLISH_STEP, 0.0, POLISH_STEP))
        curvature = left - 2.0 * mid + right
        if not curvature < 0.0:
            break
        beta += POLISH_STEP * (left - right) / (2.0 * curvature)
        best = max(best, _peak(form, beta))
    return best


def best_value(source) -> float:
    """The largest F1 over the landscape's stationary betas (and the ends of [0, pi/2])."""
    form = LandscapeForm.of(source)
    z = laurent_z(form)
    u = (z + z[::-1].conj()) / 2.0
    v = (z - z[::-1].conj()) / 2j
    du, dv = _derivative(u), _derivative(v)
    cubic = (
        np.convolve(np.convolve(du, du), v)
        - 2.0 * np.convolve(np.convolve(u, du), dv)
        - np.convolve(np.convolve(v, dv), dv)
    )
    candidates = [0.0, math.pi / 2.0, *_unit_circle_betas(v), *_unit_circle_betas(cubic)]
    return max(_polish(form, beta) for beta in candidates)
