import math
from itertools import combinations

import numpy as np
import pytest

from qaoa_landscape._kernels import distance_profiles
from qaoa_landscape.analytic import (
    EXACT_MODE,
    PAPER_MODE,
    UniformModel,
    expected_profile,
    pmf_joint,
    pmf_single,
    summary_analytic,
)
from qaoa_landscape.core import TargetSpace, UsageError, binomial, binomial_row


def covariance(model: UniformModel) -> np.ndarray:
    """The model's covariance of the shell counts, as its summary carries it."""
    profile = expected_profile(model)
    return summary_analytic(model).e_pair - np.outer(profile, profile)


class TestModel:
    def test_validation(self):
        with pytest.raises(UsageError):
            UniformModel(0, 1)
        with pytest.raises(UsageError):
            UniformModel(4, 17)
        with pytest.raises(UsageError):
            UniformModel(4, 2, mode="bogus")


class TestPmfSingle:
    def test_distance_zero_point_mass(self):
        model = UniformModel(5, 7, EXACT_MODE)
        assert pmf_single(model, 0, 1) == 1.0
        assert pmf_single(model, 0, 0) == 0.0
        assert pmf_single(model, 0, 2) == 0.0

    def test_d_range_checked(self):
        model = UniformModel(4, 3)
        with pytest.raises(UsageError):
            pmf_single(model, 5, 0)

    def test_normalisation(self):
        for n, t in [(2, 1), (4, 3), (6, 8), (8, 64), (5, 32)]:
            model = UniformModel(n, t, EXACT_MODE)
            for d in range(n + 1):
                total = sum(pmf_single(model, d, x) for x in range(t + 1))
                assert abs(total - 1.0) < 1e-9, (n, t, d)

    def test_singleton_space_sees_nothing(self):
        model = UniformModel(5, 1, EXACT_MODE)
        for d in range(1, 6):
            assert pmf_single(model, d, 0) == pytest.approx(1.0, abs=1e-12)

    def test_full_space_is_deterministic(self):
        model = UniformModel(3, 8, EXACT_MODE)
        for d in range(1, 4):
            shell = binomial(3, d)
            assert pmf_single(model, d, shell) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_support_is_zero(self):
        model = UniformModel(4, 3, EXACT_MODE)
        assert pmf_single(model, 1, 5) == 0.0  # shell has only 4 states
        assert pmf_single(model, 1, 3) == 0.0  # only 2 draws available
        assert pmf_single(model, 1, -1) == 0.0


class TestPmfJoint:
    def test_diagonal_coupling(self):
        model = UniformModel(5, 6, EXACT_MODE)
        assert pmf_joint(model, 2, 3, 2, 3) == pmf_single(model, 2, 3)
        assert pmf_joint(model, 2, 3, 2, 4) == 0.0

    def test_distance_zero_factorises(self):
        model = UniformModel(5, 6, EXACT_MODE)
        assert pmf_joint(model, 0, 1, 3, 2) == pytest.approx(
            pmf_single(model, 3, 2), abs=1e-12
        )
        assert pmf_joint(model, 0, 0, 3, 2) == 0.0

    def test_normalisation(self):
        for n, t, d1, d2 in [(4, 3, 1, 2), (4, 3, 2, 4), (6, 8, 1, 5), (5, 4, 2, 3)]:
            model = UniformModel(n, t, EXACT_MODE)
            total = sum(
                pmf_joint(model, d1, x1, d2, x2)
                for x1 in range(t + 1)
                for x2 in range(t + 1)
            )
            assert abs(total - 1.0) < 1e-9, (n, t, d1, d2)

    def test_marginalises_to_single(self):
        model = UniformModel(5, 5, EXACT_MODE)
        for x1 in range(5):
            marginal = sum(pmf_joint(model, 1, x1, 3, x2) for x2 in range(6))
            assert abs(marginal - pmf_single(model, 1, x1)) < 1e-9

    def test_d_range_checked(self):
        with pytest.raises(UsageError, match="^need 0 <= d <= n, got d1=4, d2=1$"):
            pmf_joint(UniformModel(3, 2), 4, 0, 1, 0)


class TestMoments:
    def test_full_space_profile(self):
        # |T| = 2^n: the profile is the binomial row in both modes
        for mode in (PAPER_MODE, EXACT_MODE):
            model = UniformModel(4, 16, mode)
            assert np.allclose(expected_profile(model), binomial_row(4), atol=1e-12)

    def test_profile_starts_at_one(self):
        for mode in (PAPER_MODE, EXACT_MODE):
            profile = expected_profile(UniformModel(6, 5, mode))
            assert profile[0] == 1.0

    def test_mode_means_differ_as_stated(self):
        n, t = 6, 8
        paper = expected_profile(UniformModel(n, t, PAPER_MODE))
        exact = expected_profile(UniformModel(n, t, EXACT_MODE))
        for d in range(1, n + 1):
            assert paper[d] == pytest.approx(t * binomial(n, d) / 2**n, abs=1e-12)
            assert exact[d] == pytest.approx(
                (t - 1) * binomial(n, d) / (2**n - 1), abs=1e-12
            )

    def test_covariance_zero_at_distance_zero(self):
        for mode in (PAPER_MODE, EXACT_MODE):
            cov = covariance(UniformModel(5, 9, mode))
            assert np.all(cov[0] == 0.0) and np.all(cov[:, 0] == 0.0)

    def test_covariance_symmetric(self):
        for mode in (PAPER_MODE, EXACT_MODE):
            cov = covariance(UniformModel(6, 11, mode))
            assert np.allclose(cov, cov.T, rtol=0, atol=1e-15)

    def test_covariance_hand_values(self):
        # paper mode, n=4, t=5: population 16, draws 5, c = 5 * 11 / 15
        cov = covariance(UniformModel(4, 5, PAPER_MODE))
        c = 5 * 11 / 15
        assert cov[1, 1] == pytest.approx(c * (4 / 16) * (12 / 16), rel=1e-14)
        assert cov[2, 2] == pytest.approx(c * (6 / 16) * (10 / 16), rel=1e-14)
        assert cov[1, 2] == pytest.approx(-c * (4 / 16) * (6 / 16), rel=1e-14)
        assert cov[3, 4] == pytest.approx(-c * (4 / 16) * (1 / 16), rel=1e-14)
        # paper mode, n=1, t=1: population 2, draws 1, c = 1, q = 1/2
        assert covariance(UniformModel(1, 1, PAPER_MODE))[1, 1] == 0.25

    def test_no_covariance_with_one_state_to_draw(self):
        # exact mode at n = 1: population 1, so every count is fixed
        for t in (1, 2):
            model = UniformModel(1, t, EXACT_MODE)
            profile = expected_profile(model)
            assert np.array_equal(summary_analytic(model).e_pair, np.outer(profile, profile))

    def test_exact_mode_matches_pmf_moments(self):
        model = UniformModel(6, 8, EXACT_MODE)
        profile = expected_profile(model)
        pair = summary_analytic(model).e_pair
        for d in range(7):
            mean = sum(x * pmf_single(model, d, x) for x in range(9))
            assert abs(mean - profile[d]) < 1e-9
        for d1, d2 in [(1, 1), (1, 2), (2, 5), (3, 3)]:
            mean_prod = sum(
                x1 * x2 * pmf_joint(model, d1, x1, d2, x2)
                for x1 in range(9)
                for x2 in range(9)
            )
            assert abs(mean_prod - pair[d1, d2]) < 1e-9

    def test_exact_mode_against_enumeration(self):
        # full enumeration of every 3-subset of {0,1}^3 with every member
        # as reference: the strongest possible oracle for the exact mode
        n, t = 3, 3
        profiles = []
        for subset in combinations(range(8), t):
            space = TargetSpace.from_iterable(n, subset)
            profiles.extend(distance_profiles(space.states, n).tolist())
        profiles = np.array(profiles, dtype=np.float64)
        model = UniformModel(n, t, EXACT_MODE)
        assert np.allclose(profiles.mean(axis=0), expected_profile(model), atol=1e-12)
        observed = profiles.T @ profiles / len(profiles)
        assert np.allclose(observed, summary_analytic(model).e_pair, rtol=0, atol=1e-12)

    def test_monte_carlo_agreement(self):
        # quick version; the acceptance suite runs the full-size check
        rng = np.random.default_rng(99)
        n, t, draws = 5, 6, 20_000
        model = UniformModel(n, t, EXACT_MODE)
        keys = np.argsort(rng.random((draws, 1 << n)), axis=1)[:, :t].astype(np.uint64)
        dist = np.bitwise_count(keys ^ keys[:, 0:1]).astype(np.int64)
        offsets = np.arange(draws, dtype=np.int64)[:, None] * (n + 1) + dist
        counts = np.bincount(offsets.ravel(), minlength=draws * (n + 1)).reshape(draws, n + 1)
        profile = expected_profile(model)
        for d in range(n + 1):
            sample = counts[:, d].astype(float)
            if sample.std() == 0:
                assert abs(sample.mean() - profile[d]) < 1e-12
                continue
            z = abs(sample.mean() - profile[d]) / (sample.std(ddof=1) / math.sqrt(draws))
            assert z < 5, (d, z)


class TestSummary:
    def test_marks_analytic_origin(self):
        summary = summary_analytic(UniformModel(5, 6, PAPER_MODE))
        assert summary.count == 0
        assert summary.var_tsize == 0.0
        assert summary.e_tsize == 6.0
        assert summary.mode == PAPER_MODE

    def test_full_space_pair_is_outer_product(self):
        # n=3, |T|=8 covers everything: no variance left in either mode
        row = binomial_row(3)
        for mode in (PAPER_MODE, EXACT_MODE):
            summary = summary_analytic(UniformModel(3, 8, mode))
            assert np.allclose(summary.e_pair, np.outer(row, row), atol=1e-12)

    def test_diagonal_dominates_squared_profile(self):
        for mode in (PAPER_MODE, EXACT_MODE):
            summary = summary_analytic(UniformModel(7, 20, mode))
            assert np.all(summary.e_pair.diagonal() >= summary.e_profile**2 - 1e-12)

    def test_pair_row_zero_is_profile(self):
        summary = summary_analytic(UniformModel(6, 10, EXACT_MODE))
        assert np.allclose(summary.e_pair[0], summary.e_profile, atol=1e-12)
