import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoa_landscape.analytic import MODES, UniformModel, summary_analytic
from qaoa_landscape.core import (
    AngleGrid,
    ComputationError,
    TargetSpace,
    UsageError,
    default_grid,
)
from qaoa_landscape.landscape import (
    LandscapeForm,
    LandscapeGrid,
    approx_expected_f1,
    coefficient_scan,
    coefficient_z,
    f1,
    f1_closed,
    f1_statevector,
    f_n,
    fn_matrix,
    form_coefficients,
    form_z,
    mean_ck_squared,
    qaoa_state,
    w_matrix,
    z_f1,
)
from qaoa_landscape.experiments import run_landscape_comparison
from qaoa_landscape.optimize import best_angles
from qaoa_landscape.problems import Ensemble, Instance, build_ensemble
from qaoa_landscape.structure import StructuralSummary, aggregate

import landscape_oracle
from angle_oracle import laurent_z
from conftest import (
    ANALYTIC_CASES, FAMILY_CASES, analytic_summaries, family_sources, oracle_spaces, random_space,
)


@st.composite
def small_spaces(draw):
    n = draw(st.integers(1, 8))
    size = draw(st.integers(1, min(24, 1 << n)))
    states = draw(
        st.sets(st.integers(0, (1 << n) - 1), min_size=size, max_size=size)
    )
    return TargetSpace.from_iterable(n, states)


angles_st = st.tuples(
    st.floats(-7.0, 7.0, allow_nan=False), st.floats(-7.0, 7.0, allow_nan=False)
)


class TestAmplitudeFactor:
    def test_hand_value(self):
        assert cmath.isclose(f_n(math.pi / 4, 1, 2), -0.5j, abs_tol=1e-15)

    def test_beta_zero(self):
        assert f_n(0.0, 0, 5) == 1.0
        for d in range(1, 6):
            assert f_n(0.0, d, 5) == 0.0

    def test_beta_half_pi(self):
        for n in range(1, 6):
            assert cmath.isclose(f_n(math.pi / 2, n, n), (-1j) ** n, abs_tol=1e-15)

    def test_d_out_of_range(self):
        with pytest.raises(UsageError):
            f_n(0.1, -1, 4)
        with pytest.raises(UsageError):
            f_n(0.1, 5, 4)

    def test_vector_matches_scalar(self):
        for beta in (0.0, 0.3, 1.7, math.pi):
            vec = fn_matrix(beta, 6)
            for d in range(7):
                assert cmath.isclose(vec[d], f_n(beta, d, 6), abs_tol=1e-15)


class TestF1:
    def test_n1_closed_form(self):
        space = TargetSpace(1, (1,))
        rng = np.random.default_rng(6)
        for _ in range(100):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            want = (1 + math.sin(2 * beta) * math.sin(gamma)) / 2
            assert abs(f1_closed(space, beta, gamma) - want) < 1e-12
            assert abs(f1_statevector(space, beta, gamma) - want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_spaces(), angles_st)
    def test_closed_matches_statevector(self, space, angles):
        beta, gamma = angles
        closed = f1_closed(space, beta, gamma)
        direct = f1_statevector(space, beta, gamma)
        assert abs(closed - direct) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(small_spaces(), angles_st)
    def test_boundary_collapse(self, space, angles):
        _, gamma = angles
        beta = angles[0]
        baseline = len(space) / (1 << space.n)
        assert abs(f1_closed(space, 0.0, gamma) - baseline) < 1e-12
        assert abs(f1_closed(space, beta, 0.0) - baseline) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(small_spaces(), angles_st)
    def test_periodicity(self, space, angles):
        beta, gamma = angles
        base = f1_closed(space, beta, gamma)
        assert abs(f1_closed(space, beta, gamma + 2 * math.pi) - base) < 1e-12
        assert abs(f1_closed(space, beta + 2 * math.pi, gamma) - base) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(small_spaces(), angles_st)
    def test_range(self, space, angles):
        value = f1_closed(space, *angles)
        assert -1e-12 <= value <= 1 + 1e-12

    def test_statevector_norm_preserved(self, rng):
        for _ in range(5):
            space = random_space(rng, 7)
            amps = qaoa_state(space, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12

    def test_statevector_width_capped(self):
        space = TargetSpace(25, (1,))
        with pytest.raises(UsageError):
            f1_statevector(space, 0.1, 0.1)

    def test_grid_and_curve_match_pointwise(self, rng):
        space = random_space(rng, 5, 7)
        grid = AngleGrid(0.0, math.pi, 0.0, 5.0, 4, 3)
        values = f1(space, grid.betas(), grid.gammas()).ravel()
        i = 0
        for b in grid.betas():
            for g in grid.gammas():
                assert abs(values[i] - f1_closed(space, float(b), float(g))) < 1e-12
                i += 1
        curve = f1(space, grid.betas(), 1.2)
        for j, b in enumerate(grid.betas()):
            assert abs(curve[j] - f1_closed(space, float(b), 1.2)) < 1e-12

    def test_mean_ck_squared_scales_f1(self, rng):
        space = random_space(rng, 6, 9)
        beta, gamma = 0.9, 2.2
        closed = f1_closed(space, beta, gamma)
        scaled = mean_ck_squared(space, beta, gamma) * len(space) / (1 << 6)
        assert abs(closed - scaled) < 1e-14


class TestFormAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(oracle_spaces(), angles_st)
    def test_point_curve_and_grid(self, space, angles):
        beta, gamma = angles
        grid = AngleGrid(beta, beta + 1.0, gamma, gamma + 2.0, 3, 4)
        values = f1(space, grid.betas(), grid.gammas())
        curve = f1(space, grid.betas(), gamma)
        to_bracket = (1 << space.n) / len(space)
        for i, b in enumerate(grid.betas()):
            assert abs(curve[i] - f1_statevector(space, b, gamma)) < 1e-9
            for j, g in enumerate(grid.gammas()):
                want = f1_statevector(space, b, g)
                assert abs(values[i, j] - want) < 1e-9
                assert abs(f1_closed(space, b, g) - want) < 1e-9
                # mean |c_k|^2 averages to 1 over the angles: its natural scale
                per_target = mean_ck_squared(space, b, g)
                assert abs(values[i, j] * to_bracket - per_target) <= 1e-12 * max(per_target, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.data(), angles_st)
    def test_mirror_symmetry(self, n, count, data, angles):
        # F1(pi - beta, 2pi - gamma) = F1(beta, gamma): the angle search needs beta <= pi/2 only
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        beta, gamma = angles
        for source in [*spaces, aggregate(spaces)]:
            mirrored = f1(source, math.pi - beta, 2 * math.pi - gamma)
            assert abs(mirrored - f1(source, beta, gamma)) <= 1e-12
        mirrored = f1_statevector(spaces[0], math.pi - beta, 2 * math.pi - gamma)
        assert abs(mirrored - f1(spaces[0], beta, gamma)) < 1e-9

    def test_dense_n14(self):
        rng = np.random.default_rng(14)
        space = random_space(rng, 14, 8192)
        for beta, gamma in rng.uniform(0.0, 2 * math.pi, size=(4, 2)):
            assert abs(f1_closed(space, beta, gamma) - f1_statevector(space, beta, gamma)) < 1e-9


def assert_coefficients_match_form_z(source, betas):
    """The coefficient route against form_z, and against the binomial expansion."""
    form = LandscapeForm.of(source)
    (coeffs,) = form_coefficients([form])
    n = form.n
    # bounds |z| at every beta; the bracket itself averages to 1 over the angles
    scale = max(np.abs(coeffs).sum(), 1.0)
    assert coeffs.shape == (2 * n + 1,)
    assert np.abs(coefficient_z(coeffs, betas) - form_z([form], betas)[0]).max() <= 1e-13 * scale
    points = 128 * n  # the search's scan: w at the 128n-th roots of unity
    scan = coefficient_scan(coeffs, points)
    assert np.abs(scan - form_z([form], np.pi * np.arange(points) / points)[0]).max() <= 1e-13 * scale
    expanded = laurent_z(source)  # powers -n..n; the route's FFT order is 0..n, -n..-1
    assert np.abs(coeffs - np.roll(expanded, -n)).max() <= 1e-13 * scale


class TestCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.data())
    def test_match_form_z(self, n, count, data):
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for source in [*spaces, aggregate(spaces)]:
            assert_coefficients_match_form_z(source, rng.uniform(-math.pi, 2 * math.pi, 64))

    def test_match_form_z_dense_n14(self):
        ensemble = build_ensemble("uniform", 14, 3, {"t_size": 4096}, seed=3)
        spaces = [inst.target for inst in ensemble.instances]
        betas = np.random.default_rng(14).uniform(0.0, math.pi, 200)
        for source in [*spaces, aggregate(spaces)]:
            assert_coefficients_match_form_z(source, betas)

    def test_one_beta_per_row(self, rng):
        spaces = [random_space(rng, 6) for _ in range(3)]
        coeffs = form_coefficients([LandscapeForm.of(space) for space in spaces])
        betas = np.array([0.1, 0.7, 1.3])
        got = coefficient_z(coeffs, betas)
        assert got.shape == (3,)
        for i, beta in enumerate(betas):
            assert got[i] == coefficient_z(coeffs[i], beta)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, -0.0 and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64))


def sampled_coefficients(form: LandscapeForm) -> np.ndarray:
    """One form's coefficients written out: one FFT of lone samples of z."""
    size = 2 * form.n + 1
    return np.fft.fft(landscape_oracle.lone_z(form, np.pi * np.arange(size) / size), norm="forward")


def family_forms(family, n, params):
    """The forms of a six-instance ensemble of one family, then of its summary."""
    return [LandscapeForm.of(source) for source in family_sources(family, n, params)]


def analytic_forms(n, t):
    """The forms of the analytic summaries of width n and size t, in every mode."""
    return [LandscapeForm.of(summary) for summary in analytic_summaries(n, t)]


def stacks(forms):
    """Stacks of 1, 7 and 200 forms, cycling through forms."""
    return [[forms[i % len(forms)] for i in range(size)] for size in (1, 7, 200)]


def assert_rows_are_lone(forms):
    """Every row of form_z and form_coefficients, in every stack, has the bits of its form alone."""
    betas = np.linspace(-1.0, 4.0, 37)
    for stack in stacks(forms):
        got = form_z(stack, betas)
        assert got.shape == (len(stack), betas.size)
        for row, form in zip(got, stack):
            assert same_bits(row, landscape_oracle.lone_z(form, betas))
        for row, form in zip(form_coefficients(stack), stack):
            assert same_bits(row, sampled_coefficients(form))


class TestFormStack:
    """Each row of a stacked evaluation has the bits of its form alone."""

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_coefficients_are_the_sampled_fft(self, family, n, params):
        assert_rows_are_lone(family_forms(family, n, params))

    @pytest.mark.parametrize("n, t", ANALYTIC_CASES)
    def test_coefficients_are_the_sampled_fft_analytic(self, n, t):
        assert_rows_are_lone(analytic_forms(n, t))

    def test_scalar_beta(self, rng):
        spaces = [random_space(rng, 6) for _ in range(3)]
        forms = [LandscapeForm.of(space) for space in spaces]
        got = form_z(forms, 0.4)
        assert got.shape == (3,)
        for z, form, space in zip(got, forms, spaces):
            assert same_bits(z, landscape_oracle.lone_z(form, 0.4))
            assert float(z_f1(form.scale, z, 2.1)) == f1_closed(space, 0.4, 2.1)

    def test_one_call_serves_every_form(self, rng):
        spaces = [random_space(rng, 7) for _ in range(5)]
        sources = [*spaces, aggregate(spaces)]
        forms = [LandscapeForm.of(source) for source in sources]
        betas, gammas = np.linspace(-1.0, 4.0, 37), np.array([0.3, 1.2, 5.0])
        for z, form, source in zip(form_z(forms, betas), forms, sources):
            assert same_bits(z_f1(form.scale, z, gammas), f1(source, betas, gammas))

    def test_betas_of_any_shape(self, rng):
        # profile @ fn.T reverses every axis of fn: 2-d betas are flattened for it
        space = TargetSpace(3, (1, 6))
        forms = [LandscapeForm.of(space), LandscapeForm.of(random_space(rng, 3))]
        betas = np.linspace(-1.0, 4.0, 8).reshape(2, 4)
        got, values = form_z(forms, betas), f1(space, betas, 0.7)
        assert got.shape == (2, 2, 4) and values.shape == (2, 4)
        for i, row in enumerate(betas):
            assert same_bits(got[:, i], form_z(forms, row))
            assert same_bits(values[i], f1(space, row, 0.7))
        assert f1(space, betas.reshape(2, 2, 2), np.zeros((3, 5))).shape == (2, 2, 2, 3, 5)


def term_size(source, betas) -> np.ndarray:
    """sum |Q[d, e] fn_d fn_e| + sum |p_d fn_d| per beta: what both routes to z sum over.

    Each route's rounding is a few ulps of this, whatever the cancellation.
    """
    profile, pair = landscape_oracle.statistics(source)
    fn = np.abs(fn_matrix(betas, source.n))
    return ((fn @ np.abs(pair)) * fn).sum(axis=-1) + fn @ np.abs(profile)


def assert_form_z_matches_quadratic(source, betas):
    (got,) = form_z([LandscapeForm.of(source)], betas)
    gap = np.abs(got - landscape_oracle.quadratic_z(source, betas))
    assert (gap <= 1e-14 * term_size(source, betas)).all()


# i^k for k mod 4, as (real, imaginary) parts
I_POWERS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def exact_z(source, beta: float) -> complex:
    """z at beta from the quadratic form in exact rationals.

    Reads every float that form_z reads (the source's own Q and p, cos beta,
    sin beta and exp(i*beta*n)) exactly, so the result differs from form_z
    only by form_z's rounding.  fn_d = (-i)^d size_d, so
    fn_d conj(fn_e) = i^(e-d) size_d size_e.
    """
    n = source.n
    profile, pair = landscape_oracle.statistics(source)
    cos, sin = Fraction(float(np.cos(beta))), Fraction(float(np.sin(beta)))
    size = [cos ** (n - d) * sin**d for d in range(n + 1)]
    quad, linear = [Fraction(0)] * 2, [Fraction(0)] * 2
    for d in range(n + 1):
        for part, unit in enumerate(I_POWERS[-d % 4]):
            linear[part] += unit * Fraction(float(profile[d])) * size[d]
        for e in range(n + 1):
            term = Fraction(float(pair[d, e])) * size[d] * size[e]
            for part, unit in enumerate(I_POWERS[(e - d) % 4]):
                quad[part] += unit * term
    turn = complex(np.exp(1j * n * np.asarray(beta)))
    re, im = Fraction(turn.real), Fraction(turn.imag)
    z_re = quad[0] - (re * linear[0] - im * linear[1])
    z_im = quad[1] - (re * linear[1] + im * linear[0])
    return complex(float(z_re), float(z_im))


class TestFormAgainstQuadratic:
    """form_z's (p, A) route against the O(n^2) contraction of p and Q it replaces."""

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_families_and_summaries(self, family, n, params):
        spaces = [inst.target for inst in build_ensemble(family, n, 4, params, seed=5).instances]
        betas = np.random.default_rng(n).uniform(-math.pi, 2 * math.pi, 300)
        for source in [*spaces, aggregate(spaces)]:
            assert_form_z_matches_quadratic(source, betas)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.data())
    def test_random_spaces_and_summaries(self, n, count, data):
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        betas = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0, 7, 64)
        for source in [*spaces, aggregate(spaces)]:
            assert_form_z_matches_quadratic(source, betas)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.data(), st.floats(-7.0, 7.0))
    def test_exact_fractions(self, n, count, data, beta):
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        for source in [*spaces, aggregate(spaces)]:
            got = complex(form_z([LandscapeForm.of(source)], beta)[0])
            assert abs(got - exact_z(source, beta)) <= 1e-14 * term_size(source, beta)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pair_symmetric_only_to_rounding(self, n):
        # a summary may carry an e_pair symmetric only to ROUNDING_TOL: A reads
        # every ordered (d, e), so form_z stays the real part of the contraction
        ensemble = build_ensemble("uniform", n, 3, {"t_size": 3}, seed=1)
        summary = aggregate([inst.target for inst in ensemble.instances])
        skew = 1e-12 * np.triu(np.ones((n + 1, n + 1)), 1)
        skewed = StructuralSummary(
            n=n, count=summary.count, e_tsize=summary.e_tsize, var_tsize=summary.var_tsize,
            e_profile=summary.e_profile, e_pair=summary.e_pair + skew,
        )
        assert (skewed.e_pair != skewed.e_pair.T).any()
        betas = np.linspace(0.0, math.pi, 181)
        assert_form_z_matches_quadratic(skewed, betas)
        # the skew moves z by more than that check allows, so reading one triangle
        # of e_pair (a move of 0 or of twice the skew) would fail it
        skewed_z, summary_z = form_z([LandscapeForm.of(skewed), LandscapeForm.of(summary)], betas)
        moved = skewed_z - summary_z
        assert (np.abs(moved) > 2e-14 * term_size(skewed, betas)).any()


def krawtchouk(n: int) -> list[list[int]]:
    """K[d][j], the w^j coefficient of (1 + w)^(n-d) (1 - w)^d, in Python ints."""
    rows = []
    for d in range(n + 1):
        poly = [1]
        for sign in [1] * (n - d) + [-1] * d:
            poly = [a + sign * b for a, b in zip(poly + [0], [0] + poly)]
        rows.append(poly)
    return rows


def as_integers(values) -> tuple[list[int], int]:
    """Floats as integers over one power of two 2^bits, exactly."""
    fractions = [Fraction(float(value)) for value in values]
    bits = max(f.denominator for f in fractions).bit_length() - 1
    return [int(f * (1 << bits)) for f in fractions], bits


def exact_coefficients(summary) -> dict[int, float]:
    """The a_k of z for a summary's own float e_profile and e_pair, rounded once.

    exp(i*beta*n) fn_d = 2^-n sum_j K[d][j] w^j, so q, the real part of
    fn^T Q conj(fn), has w^k coefficient sum_b (K^T S K)[b + k, b] / 4^n with
    S = (Q + Q^T) / 2, and exp(i*beta*n) p . fn has (p K)_k / 2^n for k >= 0.
    Every product and sum is in Python ints; each a_k is one Fraction, rounded
    once to a float.
    """
    n = summary.n
    kraw = krawtchouk(n)
    flat, pair_bits = as_integers(summary.e_pair.ravel())
    pair = [flat[d * (n + 1):(d + 1) * (n + 1)] for d in range(n + 1)]
    twice = [[pair[d][e] + pair[e][d] for e in range(n + 1)] for d in range(n + 1)]
    right = [[sum(twice[d][e] * kraw[e][b] for e in range(n + 1)) for b in range(n + 1)]
             for d in range(n + 1)]
    both = [[sum(kraw[d][a] * right[d][b] for d in range(n + 1)) for b in range(n + 1)]
            for a in range(n + 1)]
    profile, profile_bits = as_integers(summary.e_profile)
    linear = [sum(profile[d] * kraw[d][k] for d in range(n + 1)) for k in range(n + 1)]
    coeffs = {}
    for k in range(-n, n + 1):
        quad = sum(both[b + k][b] for b in range(max(0, -k), min(n, n - k) + 1))
        exact = Fraction(quad, 1 << (pair_bits + 1 + 2 * n))
        if k >= 0:
            exact -= Fraction(linear[k], 1 << (profile_bits + n))
        coeffs[k] = float(exact)
    return coeffs


def reference_f1(summary, coeffs, betas, gammas) -> np.ndarray:
    """F1 from rounded exact coefficients, z summed by fsum: within a few 1e-16 of the true F1."""
    scale = summary.e_tsize / 2.0**summary.n
    values = np.empty((len(betas), len(gammas)))
    for i, beta in enumerate(betas.tolist()):
        re = math.fsum(c * math.cos(2 * k * beta) for k, c in coeffs.items())
        im = math.fsum(c * math.sin(2 * k * beta) for k, c in coeffs.items())
        for j, gamma in enumerate(gammas.tolist()):
            values[i, j] = scale * (1.0 - 2.0 * ((math.cos(gamma) - 1.0) * re + math.sin(gamma) * im))
    return values


class TestAccuracyAgainstExactRationals:
    """f1 of dense analytic summaries against exact arithmetic on the same floats.

    |T| = 2^n/3 + 1.  Each bound is about twice the error of f1 (form_z from
    A and p), measured on 61 x 7 angles (paper, exact mode): 1.7e-14 and
    5.9e-14 at n = 14, 1.3e-12 and 3.0e-12 at n = 24, 1.4e-10 and 7.7e-10 at
    n = 32.  z from float64 Krawtchouk coefficients K^T Q K misses by 3.4e-12
    and 7.1e-12 at n = 24 and by 1.8e-9 in both modes at n = 32, past each
    bound there.
    """

    @pytest.mark.parametrize(
        "n, mode, bound",
        [(14, MODES[0], 3.3e-14), (14, MODES[1], 1.2e-13),
         (24, MODES[0], 2.7e-12), (24, MODES[1], 6e-12),
         (32, MODES[0], 2.8e-10), (32, MODES[1], 1.6e-9)],
    )
    def test_f1_within_twice_its_measured_error(self, n, mode, bound):
        summary = summary_analytic(UniformModel(n, (1 << n) // 3 + 1, mode))
        betas = np.linspace(0.0, math.pi / 2, 61)
        gammas = np.linspace(0.0, 2 * math.pi, 7)
        want = reference_f1(summary, exact_coefficients(summary), betas, gammas)
        assert np.abs(f1(summary, betas, gammas) - want).max() <= bound


class TestWidthLimit:
    """Dense analytic summaries up to MAX_WIDTH give finite landscapes in [0, 1]."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, t_size", [(29, 2**29), (29, 2**28), (32, 2**32), (32, 2**31)])
    def test_grid_and_search(self, n, t_size, mode):
        summary = summary_analytic(UniformModel(n, t_size, mode))
        grid = default_grid(100, 100)
        values = f1(summary, grid.betas(), grid.gammas())
        best = best_angles(summary).value
        for found in (values, best):
            assert np.isfinite(found).all()
            assert -1e-6 <= np.min(found) and np.max(found) <= 1.0 + 1e-6


def n1_summary() -> StructuralSummary:
    return StructuralSummary(
        n=1,
        count=1,
        e_tsize=1.0,
        var_tsize=0.0,
        e_profile=np.array([1.0, 0.0]),
        e_pair=np.array([[1.0, 0.0], [0.0, 0.0]]),
    )


class TestApproximation:
    def test_w_matrix_hand_values(self):
        # n=1, T={1}: w = [[1, exp(-i*gamma)], [exp(i*gamma), 1]]
        gamma = math.pi / 2
        w = w_matrix(gamma, n1_summary())
        assert cmath.isclose(w[0, 0], 1.0, abs_tol=1e-14)
        assert cmath.isclose(w[0, 1], cmath.exp(-1j * gamma), abs_tol=1e-14)
        assert cmath.isclose(w[1, 0], cmath.exp(1j * gamma), abs_tol=1e-14)
        assert cmath.isclose(w[1, 1], 1.0, abs_tol=1e-14)

    def test_w_matrix_conjugate_pairing(self, rng):
        summary = aggregate([random_space(rng, 5) for _ in range(4)])
        for gamma in (0.3, 1.2, 4.0):
            w = w_matrix(gamma, summary)
            assert np.allclose(w, w.conj().T, atol=1e-12)

    def test_approx_n1_family(self):
        summary = n1_summary()
        rng = np.random.default_rng(8)
        for _ in range(50):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            want = (1 + math.sin(2 * beta) * math.sin(gamma)) / 2
            assert abs(approx_expected_f1(summary, beta, gamma) - want) < 1e-12

    def test_beta_zero_gives_scaled_size(self, rng):
        summary = aggregate([random_space(rng, 6) for _ in range(5)])
        for gamma in (0.0, 0.9, 3.3):
            want = summary.e_tsize / 64
            assert abs(approx_expected_f1(summary, 0.0, gamma) - want) < 1e-12

    def test_single_instance_approx_is_exact(self, rng):
        # one instance: the approximation reproduces its landscape identically
        space = random_space(rng, 6, 12)
        summary = aggregate([space])
        for _ in range(20):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            assert abs(approx_expected_f1(summary, beta, gamma) - f1_closed(space, beta, gamma)) < 1e-12

    def test_linearity_over_ensemble(self):
        # ensemble mean of per-instance mean |c_k|^2 == aggregated evaluation
        ensemble = build_ensemble("sat", 6, 15, {"num_clauses": 12}, seed=9)
        spaces = [inst.target for inst in ensemble.instances]
        summary = aggregate(spaces)
        rng = np.random.default_rng(1)
        for _ in range(10):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            direct = np.mean([mean_ck_squared(s, beta, gamma) for s in spaces])
            via_summary = approx_expected_f1(summary, beta, gamma) * (1 << 6) / summary.e_tsize
            assert abs(direct - via_summary) <= 1e-9 * max(1.0, abs(direct))

    def test_grid_and_curve_match_pointwise(self, rng):
        summary = aggregate([random_space(rng, 5) for _ in range(3)])
        grid = AngleGrid(0.0, math.pi, 0.0, 5.0, 4, 3)
        values = f1(summary, grid.betas(), grid.gammas()).ravel()
        i = 0
        for b in grid.betas():
            for g in grid.gammas():
                assert abs(values[i] - approx_expected_f1(summary, float(b), float(g))) < 1e-12
                i += 1
        curve = f1(summary, grid.betas(), 1.2)
        for j, b in enumerate(grid.betas()):
            assert abs(curve[j] - approx_expected_f1(summary, float(b), 1.2)) < 1e-12

    def test_runtime_100x100_at_n11(self):
        summary = summary_analytic(UniformModel(11, 1024, "paper"))
        start = time.time()
        grid = default_grid(100, 100)
        f1(summary, grid.betas(), grid.gammas())
        assert time.time() - start < 1.0


class TestErrorBound:
    """The bound grid of run_landscape_comparison against per-instance values."""

    def test_hand_value(self):
        # T = {0} at n=1 has bracket 1 + sin(2*beta) sin(gamma), the full space
        # bracket 1: with s = (1/2, 1) the bound is |sin(2*beta) sin(gamma)| / 8
        ensemble = Ensemble("hand", 1, 0, {}, (
            Instance(0, TargetSpace(1, (0,))), Instance(1, TargetSpace(1, (0, 1))),
        ))
        grid = AngleGrid(0.1, 1.4, 0.2, 2.9, 4, 5)
        bound = run_landscape_comparison(ensemble, grid).bound.values
        want = np.abs(np.outer(np.sin(2 * grid.betas()), np.sin(grid.gammas()))) / 8
        assert np.allclose(bound, want.ravel(), rtol=0, atol=1e-15)

    def test_validation(self):
        # an empty ensemble or one of mixed widths is refused, as aggregate refuses it
        grid = AngleGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
        for instances in ((), (Instance(0, TargetSpace(2, (1,))), Instance(1, TargetSpace(3, (1,))))):
            with pytest.raises(UsageError):
                run_landscape_comparison(Ensemble("hand", 2, 0, {}, instances), grid)

    def test_trailing_point_axes(self, rng):
        # one bound per lattice point, each the bound of that point's column
        instances = tuple(Instance(i, random_space(rng, 5)) for i in range(7))
        ensemble = Ensemble("random", 5, 0, {}, instances)
        grid = AngleGrid(0.0, math.pi, 0.0, 2 * math.pi, 3, 4)
        bound = run_landscape_comparison(ensemble, grid).bound.values.reshape(3, 4)
        spaces = [inst.target for inst in ensemble.instances]
        scaled = np.array([len(s) for s in spaces]) / 32
        for i, beta in enumerate(grid.betas()):
            for j, gamma in enumerate(grid.gammas()):
                brackets = [mean_ck_squared(s, beta, gamma) for s in spaces]
                want = landscape_oracle.error_bound(scaled, brackets)
                assert bound[i, j] == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_dominates_actual_deviation(self, rng):
        # mean(F1) - mean(S)*mean(M) is exactly cov(S, M), bounded by the product
        spaces = [random_space(rng, 6) for _ in range(12)]
        scaled = np.array([len(s) for s in spaces]) / 64
        for _ in range(5):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            mvals = np.array([mean_ck_squared(s, beta, gamma) for s in spaces])
            f1s = np.array([f1_closed(s, beta, gamma) for s in spaces])
            deviation = abs(f1s.mean() - scaled.mean() * mvals.mean())
            assert deviation <= landscape_oracle.error_bound(scaled, mvals) + 1e-12


class TestEvalGrid:
    def test_row_major_order(self):
        # T = {1} at n=1 has F1 = (1 + sin(2*beta)*sin(gamma)) / 2
        grid = AngleGrid(0.1, 1.0, 0.2, 1.0, 2, 3)
        values = f1(TargetSpace(1, (1,)), grid.betas(), grid.gammas()).ravel()
        want = [
            (1 + math.sin(2 * b) * math.sin(g)) / 2 for b in grid.betas() for g in grid.gammas()
        ]
        assert np.allclose(values, want, rtol=0, atol=1e-15)

    def test_landscape_grid_shape_checked(self):
        grid = AngleGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(UsageError):
            LandscapeGrid(grid=grid, values=np.zeros(3))
        with pytest.raises(UsageError, match=r"^stddev must have shape \(4,\)$"):
            LandscapeGrid(grid=grid, values=np.zeros(4), stddev=np.zeros(3))
        with pytest.raises(ComputationError, match="finite"):  # grids are computed, never read
            LandscapeGrid(grid=grid, values=np.array([0.0, 1.0, np.nan, 0.0]))
