"""Depth-1 QAOA landscapes over (beta, gamma).

The circuit prepares the uniform superposition, multiplies every target
amplitude by exp(-i*gamma) (the cost operator projects onto the target set)
and applies the mixer exp(-i*beta*X).  With mixer factors
fn_d = cos(beta)^(n-d) * (-i*sin(beta))^d and phi = exp(-i*gamma) - 1, target
k has amplitude c_k = phi * (profile_k . fn) + sum_d C(n, d) fn_d, and
F1 = 2^-n sum_k |c_k|^2.  The binomial sum is exp(-i*beta*n), so the mean of
|c_k|^2 needs only the mean profile p and q = mean_k |profile_k . fn|^2:

    F1 = (|T| / 2^n) * [|phi|^2 q + 2 Re(phi exp(i*beta*n) p . fn) + 1]

fn_d conj(fn_e) = cos^(2n-d-e) sin^(d+e) i^(e-d) is imaginary where d + e is
odd, so of the mean pair matrix Q = mean_k profile_k profile_k^T only the
even-diagonal sums A_t = sum_{d+e=2t} (-1)^(t-d) Q[d, e] count, and
q = sum_t A_t |fn_t|^2 = cos^(2n)(beta) sum_t A_t tan^(2t)(beta): A_t is the
y^(2t) coefficient of mean_k |sum_d profile_k[d] (iy)^d|^2.  A ``TargetSpace``
builds (p, Q) once, in O(|T| n^2), a ``StructuralSummary`` holds their
ensemble means (the bracket is linear in them), and a ``LandscapeForm`` keeps
its source's |T|/2^n, p and A: 2n+2 real numbers, from which every beta costs
O(n), whatever |T| is.  ``mean_ck_squared`` and ``w_matrix`` (per target,
binomial basis) and ``f1_statevector`` (the full 2^n state) are independent
oracles for it.  Along beta a landscape is fixed by 2n+1 Fourier
coefficients (``form_coefficients``), from which ``coefficient_z`` and
``coefficient_scan`` give z at O(n) per beta or by one inverse FFT;
``form_z`` is their oracle.  What z reads of the mixer at given betas
(|fn|^2, fn and exp(i*beta*n)) does not depend on the landscape, so
``form_z`` takes a stack of forms of one width and builds it once for all of
them; ``compare`` passes its instances, and the ensemble lift its unit forms.
Each form still takes its own gemv, so its z has the same bits alone or in
any stack, and ``z_f1`` turns a form's z into F1 at any gammas.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    MAX_STATEVECTOR_WIDTH, AngleGrid, ComputationError, TargetSpace, UsageError, binomial_row,
)
from .structure import StructuralSummary


def fn_matrix(betas, n: int) -> np.ndarray:
    """fn_d = cos(beta)^(n-d) * (-i*sin(beta))^d for every beta and d.

    betas fill the leading axes and d = 0..n the last one.
    """
    down, up, phase = _exponents(n)
    return np.power.outer(np.cos(betas), down) * np.power.outer(np.sin(betas), up) * phase


@functools.cache
def _exponents(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n - d, d and (-i)^d for d = 0..n."""
    d = np.arange(n + 1)
    return n - d, d, np.array([1.0, -1j, -1.0, 1j])[d % 4]


def mean_ck_squared(space: TargetSpace, beta: float, gamma: float) -> float:
    """mean_k |c_k|^2 over the targets, one target at a time (oracle route).

    Rebuilds the space's profile matrix on every call; nothing is kept.
    """
    fn = fn_matrix(beta, space.n)
    phase = cmath.exp(-1j * gamma) - 1.0
    profiles = _kernels.distance_profiles(space.states, space.n)
    ck = phase * (profiles @ fn) + binomial_row(space.n) @ fn
    return float(np.abs(ck) @ np.abs(ck)) / len(space)


@dataclass(frozen=True, eq=False)
class LandscapeForm:
    """One depth-1 landscape, F1 = scale * bracket, as in the module docstring."""

    n: int
    scale: float  # |T|/2^n, or E|T|/2^n for a summary
    profile: np.ndarray  # (n+1,)  mean distance profile p
    even: np.ndarray  # (n+1,)  A_t, the weight of |fn_t|^2 in q

    @classmethod
    def of(cls, source: TargetSpace | StructuralSummary) -> "LandscapeForm":
        """The landscape of one target space or ensemble summary.

        A sums every ordered (d, e): a Q symmetric only to rounding gives
        exactly the real part of fn^T Q conj(fn).
        """
        if isinstance(source, StructuralSummary):
            size, profile, pair = source.e_tsize, source.e_profile, source.e_pair
        else:
            size, profile, pair = len(source), source.mean_pair[0], source.mean_pair
        even = _even_signs(source.n) @ pair.ravel()
        return cls(source.n, size / (1 << source.n), profile, even)


@functools.cache
def _even_signs(n: int) -> np.ndarray:
    """S with A = S @ Q.ravel(): S[t, (d, e)] = (-1)^(t-d) where d + e = 2t, else 0."""
    d, e = np.indices((n + 1, n + 1)).reshape(2, -1)
    return (np.arange(n + 1)[:, None] * 2 == d + e) * np.where((e - d) % 4, -1.0, 1.0)


def form_z(forms, betas) -> np.ndarray:
    """z = q - exp(i*beta*n) * p . fn of each form at each beta, with q = |fn|^2 . A real.

    All forms share one width n, and fn is built once for them.  The result
    has shape (len(forms),) + shape(betas).  Each beta costs O(n) per form;
    the bracket at (beta, gamma) is 1 - 2 Re(z * phi(gamma)).  Each form
    takes its own gemv, so its z has the same bits alone or in any stack: a
    stacked contraction would round differently.
    """
    betas = np.asarray(betas)
    # at most 1-d for the gemvs; a scalar stays one, or its dot products round differently
    flat = betas.reshape(-1) if betas.ndim > 1 else betas
    n = forms[0].n
    fn = fn_matrix(flat, n)
    square, phase = fn.real**2 + fn.imag**2, np.exp(1j * n * flat)
    fn_t = fn.T  # a view: a contiguous copy takes another BLAS path and rounds differently
    z = np.array([square @ form.even - phase * (form.profile @ fn_t) for form in forms])
    return z.reshape((len(forms),) + betas.shape)


def form_coefficients(forms) -> np.ndarray:
    """The coefficients a_k of each form's z(beta) = sum_{k=-n..n} a_k w^k, w = exp(2i*beta).

    x^n fn_d = 2^-n (1 + w)^(n-d) (1 - w)^d with x = exp(i*beta), so each
    |fn_d|^2 and each exp(i*beta*n) * fn_d is a Laurent polynomial of degree
    n in w, and so is z.  z at the 2n+1 betas pi*j/(2n+1), which put w at
    the (2n+1)-th roots of unity, therefore fixes it: one FFT of those
    samples returns a_k exactly, in one row per form, along the last axis in
    FFT order (k = 0..n, then -n..-1).  A row has the bits of one form alone.
    """
    size = 2 * forms[0].n + 1
    return np.fft.fft(form_z(forms, np.pi * np.arange(size) / size), norm="forward")


def coefficient_z(coeffs: np.ndarray, betas) -> np.ndarray:
    """z at each beta from form_coefficients' coefficients, at O(n) per beta.

    betas broadcasts against the leading axes of coeffs: one beta per row of
    stacked coefficients, or any betas for one landscape.
    """
    waves = np.exp(np.multiply.outer(betas, wave_numbers(coeffs.shape[-1])))
    return (coeffs * waves).sum(axis=-1)


@functools.cache
def wave_numbers(size: int) -> np.ndarray:
    """2i*k for the coefficients' k in FFT order: exp(2i*k*beta) = w^k."""
    return 2j * np.fft.fftfreq(size, 1.0 / size)


def coefficient_scan(coeffs: np.ndarray, points: int) -> np.ndarray:
    """z at the betas pi*j/points, j = 0..points-1, by one inverse FFT per row.

    Those betas put w at the points-th roots of unity, so the zero-padded
    coefficients transform straight into z; points must exceed 2n.
    """
    n = coeffs.shape[-1] // 2
    padded = np.zeros(coeffs.shape[:-1] + (points,), dtype=np.complex128)
    padded[..., : n + 1] = coeffs[..., : n + 1]
    padded[..., points - n :] = coeffs[..., n + 1 :]
    return np.fft.ifft(padded, norm="forward")


def f1(source: TargetSpace | StructuralSummary, betas, gammas) -> np.ndarray:
    """F1 of one source at the outer product of betas and gammas.

    For a summary this is the structural approximation.  The result has
    shape shape(betas) + shape(gammas): a lattice is
    f1(source, grid.betas(), grid.gammas()), beta outer, and a fixed-gamma
    curve passes one gamma.
    """
    form = LandscapeForm.of(source)
    (z,) = form_z([form], betas)
    return z_f1(form.scale, z, gammas)


def z_f1(scale: float, z, gammas) -> np.ndarray:
    """F1 = scale * bracket from z, at the outer product of z's betas and gammas.

    |phi|^2 = -2 Re(phi) turns the bracket into 1 - 2 Re(phi * z): one
    complex z per beta, combined with phi(gamma) as an outer product.
    """
    phi = np.exp(-1j * np.asarray(gammas)) - 1.0
    return scale * (1.0 - 2.0 * np.multiply.outer(z, phi).real)


def f1_closed(space: TargetSpace, beta: float, gamma: float) -> float:
    """Success probability of the depth-1 circuit, via the landscape form."""
    return float(f1(space, beta, gamma))


def approx_expected_f1(summary: StructuralSummary, beta: float, gamma: float) -> float:
    """Expected F1 from structure alone: (E|T|/2^n) * E(mean |c_k|^2)."""
    return float(f1(summary, beta, gamma))


def w_matrix(gamma: float, summary: StructuralSummary) -> np.ndarray:
    """The approximation's form in the binomial basis, at one gamma.

    mean |c_k|^2 = sum_{d1,d2} w[d1,d2] * fn_d1 * conj(fn_d2).
    """
    phase = cmath.exp(-1j * gamma) - 1.0
    brow = binomial_row(summary.n)
    return (
        abs(phase) ** 2 * summary.e_pair
        + phase * np.outer(summary.e_profile, brow)
        + phase.conjugate() * np.outer(brow, summary.e_profile)
        + np.outer(brow, brow)
    )


def qaoa_state(space: TargetSpace, beta: float, gamma: float) -> np.ndarray:
    """Full 2^n statevector after the depth-1 circuit (oracle route)."""
    n = space.n
    if n > MAX_STATEVECTOR_WIDTH:
        raise UsageError(f"statevector needs n <= {MAX_STATEVECTOR_WIDTH}, got {n}")
    amps = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    amps[space.states] *= cmath.exp(-1j * gamma)
    _kernels.apply_mixer(amps, beta, n)
    return amps


def f1_statevector(space: TargetSpace, beta: float, gamma: float) -> float:
    """Success probability by direct statevector simulation (oracle route)."""
    hit = qaoa_state(space, beta, gamma)[space.states]
    return float(np.abs(hit) @ np.abs(hit))


@dataclass(frozen=True, eq=False)
class LandscapeGrid:
    """Values (and optionally spreads) on an angle lattice, row-major."""

    grid: AngleGrid
    values: np.ndarray
    stddev: np.ndarray | None = None

    def __post_init__(self) -> None:
        expected = self.grid.beta_steps * self.grid.gamma_steps
        if self.values.shape != (expected,):
            raise UsageError(f"values must have shape ({expected},)")
        if not np.isfinite(self.values).all():  # computed, never read: a numeric failure
            raise ComputationError("landscape values must be finite")
        if self.stddev is not None and self.stddev.shape != (expected,):
            raise UsageError(f"stddev must have shape ({expected},)")
