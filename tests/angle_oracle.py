"""Exact oracle for the depth-1 angle search: stationary points as polynomial roots.

At fixed beta a landscape peaks over gamma at scale * g(beta), with
g = 1 + 2u + 2|z| and z = u + iv from ``landscape.form_z``.  Where z != 0,
g' = 0 implies v * (u'^2 v - 2 u u' v' - v v'^2) = 0; where z == 0, g = 1 is
its least value.  Where v vanishes identically that product says nothing,
and g' = 2u'(1 + sign u), so the roots of u' are candidates too.  With w = exp(2i*beta) and x = exp(i*beta),
x^n fn_d = P_d(w) = 2^-n (1 + w)^(n-d) (1 - w)^d, so

    z = sum_{d,d'} Q[d, d'] P_d(w) P_d'(1/w) - sum_d p_d P_d(w)

is a Laurent polynomial of degree n in w, built here from that binomial
expansion and the source's own Q rather than from samples of form_z or from
the form's even-diagonal sums.  Both factors above are then
Laurent polynomials of degrees n and 3n, and the global maximum over beta
lies at one of their unit-circle roots.  Each root is evaluated through
form_z and given a parabolic polish.  This costs milliseconds per source: it
checks the search, it is not a route for it.

``bisect_refine`` is the search's earlier refinement, kept as the oracle
for its steps: 52 bisections of the best scan cell on the sign of the
peak's exact slope, which end where the bracket's ends are adjacent floats.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from qaoa_landscape import optimize
from qaoa_landscape.landscape import (
    LandscapeForm, coefficient_scan, coefficient_z, form_coefficients, form_z, wave_numbers, z_f1,
)

from landscape_oracle import statistics

# roots this close to the unit circle are taken as real betas
CIRCLE_TOL = 1e-4
# coefficients this small against the largest are rounding, not terms
NOISE_TOL = 1e-12
# the half-width of the parabolic polish, and how often it is applied
POLISH_STEP = 1e-6
POLISH_ROUNDS = 2
# the bisection oracle halves its bracket this many times
BISECTIONS = 52


def laurent_z(source) -> np.ndarray:
    """Coefficients of z in w for powers -n..n, from the binomial expansion."""
    n = source.n
    profile, pair = statistics(source)
    mixer = np.array(
        [P.polymul(P.polypow([1.0, 1.0], n - d), P.polypow([1.0, -1.0], d)) for d in range(n + 1)]
    ) / 2.0**n  # mixer[d, i]: the w^i coefficient of P_d
    outer = mixer.T @ pair @ mixer  # the w^(i - j) coefficient of q, at [i, j]
    z = np.array([np.trace(outer, offset=-k) for k in range(-n, n + 1)], dtype=np.complex128)
    z[n:] -= profile @ mixer
    return z


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """d/dbeta of a Laurent polynomial in w = exp(2i*beta), powers -m..m."""
    m = coeffs.size // 2
    return 2j * np.arange(-m, m + 1) * coeffs


def _unit_circle_betas(coeffs: np.ndarray) -> list[float]:
    """Betas in [0, pi/2] where w = exp(2i*beta) is a root; the mirror of a
    beta in (pi/2, pi) stands for it, as the peak has that symmetry.

    Rounding residue is zeroed first: a leading coefficient of 1e-35 where
    z is purely imaginary up to rounding (u ~ 1e-17) would throw the roots
    off the circle and hide the peak.
    """
    scale = np.abs(coeffs).max(initial=0.0)
    trimmed = np.trim_zeros(np.where(np.abs(coeffs) > NOISE_TOL * scale, coeffs, 0.0))
    if trimmed.size < 2:
        return []
    roots = np.roots(trimmed[::-1])  # highest power first
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < CIRCLE_TOL]
    betas = (np.angle(on_circle) / 2.0) % math.pi
    return [float(min(b, math.pi - b)) for b in betas]


def _peak(form: LandscapeForm, beta: float) -> float:
    z = complex(form_z([form], beta)[0])
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
    z = laurent_z(source)
    u = (z + z[::-1].conj()) / 2.0
    v = (z - z[::-1].conj()) / 2j
    du, dv = _derivative(u), _derivative(v)
    cubic = (
        np.convolve(np.convolve(du, du), v)
        - 2.0 * np.convolve(np.convolve(u, du), dv)
        - np.convolve(np.convolve(v, dv), dv)
    )
    candidates = [
        0.0, math.pi / 2.0, *_unit_circle_betas(v), *_unit_circle_betas(cubic),
        *_unit_circle_betas(du),
    ]
    return max(_polish(form, beta) for beta in candidates)


def bisect_refine(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The bisected beta in [lo[i], hi[i]] of each row of form_coefficients' coefficients.

    BISECTIONS times, the midpoint replaces lo where the peak 1 + 2 Re z + 2|z|
    strictly rises there and hi elsewhere (z == 0 does not rise); the result
    is the last midpoint.  The rows step as arrays, as the search's do:
    numpy's scalar complex arithmetic can round differently.
    """
    both = np.stack([coeffs, coeffs * wave_numbers(coeffs.shape[-1])])
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2.0
        z, dz = coefficient_z(both, mid)
        rising = dz.real * abs(z) + (z.conj() * dz).real > 0.0  # the peak's slope times |z|/2
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    return (lo + hi) / 2.0


def bisected_angles(source) -> tuple[float, float]:
    """beta and f1 at the best angles, with the best scan cell refined by bisect_refine.

    The scan, the bracket, the rule that keeps the refined beta only where it
    peaks strictly higher than the scan, and gamma and the value are
    best_angles' own, as is the unsearched tie (0, 1) of a flat landscape.
    """
    form = LandscapeForm.of(source)
    if form.scale == 1.0:  # |T| = 2^n: F1 = 1 at every angle
        return 0.0, 1.0
    coeffs = form_coefficients([form])
    cells = optimize.SCAN_CELLS_PER_QUBIT * form.n
    betas = optimize.BETA_SCAN_END * np.arange(cells + 1) / cells
    peaks = optimize._peak(coefficient_scan(coeffs[0], 2 * cells)[: cells + 1])
    best = int(np.argmax(peaks))
    lo, hi = betas[[max(best - 1, 0)]], betas[[min(best + 1, cells)]]
    refined = bisect_refine(coeffs, lo, hi)
    higher = optimize._peak(coefficient_z(coeffs, refined)) > peaks[best]
    beta = np.where(higher, refined, betas[best])
    gamma = optimize._best_gamma(complex(coefficient_z(coeffs, beta)[0]))
    return float(beta[0]), float(z_f1(form.scale, form_z([form], float(beta[0]))[0], gamma))
