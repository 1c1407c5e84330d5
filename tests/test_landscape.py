import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoa_landscape.analytic import UniformModel, summary_analytic
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
    c_k,
    coefficient_scan,
    coefficient_z,
    error_bound,
    f1,
    f1_closed,
    f1_statevector,
    f_n,
    fn_matrix,
    form_bracket,
    form_coefficients,
    form_z,
    mean_ck_squared,
    qaoa_state,
    w_matrix,
)
from qaoa_landscape.problems import build_ensemble
from qaoa_landscape.structure import StructuralSummary, aggregate

from angle_oracle import laurent_z
from conftest import oracle_spaces, random_space


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


class TestAmplitudes:
    def test_member_at_beta_zero(self):
        space = TargetSpace.from_iterable(4, [3, 9])
        profile = space.profiles[0]
        for gamma in (0.0, 0.7, 2.0, 5.5):
            value = c_k(0.0, gamma, profile, 4)
            assert cmath.isclose(value, cmath.exp(-1j * gamma), abs_tol=1e-14)
            assert abs(abs(value) - 1.0) < 1e-14

    def test_profile_length_checked(self):
        with pytest.raises(UsageError):
            c_k(0.1, 0.2, np.zeros(4), 4)

    def test_n1_family(self):
        # |c_1|^2 = 1 + sin(2*beta)*sin(gamma) for T = {1}
        space = TargetSpace(1, (1,))
        profile = space.profiles[0]
        rng = np.random.default_rng(5)
        for _ in range(50):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            got = abs(c_k(beta, gamma, profile, 1)) ** 2
            want = 1 + math.sin(2 * beta) * math.sin(gamma)
            assert abs(got - want) < 1e-12


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
    coeffs = form_coefficients(form)
    n = form.n
    # bounds |z| at every beta; the bracket itself averages to 1 over the angles
    scale = max(np.abs(coeffs).sum(), 1.0)
    assert coeffs.shape == (2 * n + 1,)
    assert np.abs(coefficient_z(coeffs, betas) - form_z(form, betas)).max() <= 1e-13 * scale
    points = 128 * n  # the search's scan: w at the 128n-th roots of unity
    scan = coefficient_scan(coeffs, points)
    assert np.abs(scan - form_z(form, np.pi * np.arange(points) / points)).max() <= 1e-13 * scale
    expanded = laurent_z(form)  # powers -n..n; the route's FFT order is 0..n, -n..-1
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
        coeffs = np.array([form_coefficients(LandscapeForm.of(space)) for space in spaces])
        betas = np.array([0.1, 0.7, 1.3])
        got = coefficient_z(coeffs, betas)
        assert got.shape == (3,)
        for i, beta in enumerate(betas):
            assert got[i] == coefficient_z(coeffs[i], beta)

    def test_residue_check_runs_on_the_samples(self):
        broken = LandscapeForm(
            n=1, scale=0.5, profile=np.array([1.0, 0.0]), pair=np.array([[0.0, 1.0], [0.0, 0.0]])
        )
        with pytest.raises(ComputationError, match="imaginary residue"):
            form_coefficients(broken)


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

    def test_imaginary_residue_guard(self):
        # an asymmetric pair matrix cannot come from real statistics and
        # must trip the residue check instead of returning silently; no
        # summary holds one, so the form is built directly
        broken = LandscapeForm(
            n=1, scale=0.5, profile=np.array([1.0, 0.0]), pair=np.array([[1.0, 3.0], [0.0, 0.0]])
        )
        with pytest.raises(ComputationError):
            form_bracket(broken, 0.8, 1.0)

    def test_runtime_100x100_at_n11(self):
        summary = summary_analytic(UniformModel(11, 1024, "paper"))
        start = time.time()
        grid = default_grid(100, 100)
        f1(summary, grid.betas(), grid.gammas())
        assert time.time() - start < 1.0


class TestErrorBound:
    def test_hand_value(self):
        bound = error_bound(np.array([0.25, 0.5]), np.array([0.2, 0.4]))
        assert abs(bound - 0.0125) < 1e-15

    def test_validation(self):
        with pytest.raises(UsageError):
            error_bound(np.array([0.1]), np.array([0.1, 0.2]))
        with pytest.raises(UsageError):
            error_bound(np.array([]), np.array([]))

    def test_trailing_point_axes(self, rng):
        # one bound per point, each the bound of that point's column
        scaled = rng.uniform(0, 1, 7)
        values = rng.uniform(0, 2, (7, 3, 4))
        bound = error_bound(scaled, values)
        assert bound.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert bound[i, j] == error_bound(scaled, values[:, i, j])
        with pytest.raises(UsageError):
            error_bound(scaled, values[:6])

    def test_dominates_actual_deviation(self, rng):
        # mean(F1) - mean(S)*mean(M) is exactly cov(S, M), bounded by the product
        spaces = [random_space(rng, 6) for _ in range(12)]
        scaled = np.array([len(s) for s in spaces]) / 64
        for _ in range(5):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            mvals = np.array([mean_ck_squared(s, beta, gamma) for s in spaces])
            f1s = np.array([f1_closed(s, beta, gamma) for s in spaces])
            deviation = abs(f1s.mean() - scaled.mean() * mvals.mean())
            assert deviation <= error_bound(scaled, mvals) + 1e-12


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
        with pytest.raises(UsageError):
            LandscapeGrid(grid=grid, values=np.array([0.0, 1.0, np.nan, 0.0]))
