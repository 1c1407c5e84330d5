import numpy as np
import pytest

from qaoa_landscape.core import BitString, TargetSpace, UsageError, binomial_row, distance_profile
from qaoa_landscape.structure import aggregate

from conftest import random_space


class TestInstanceStats:
    """The statistics of one instance: TargetSpace.mean_profile and mean_pair."""

    def test_hand_values(self):
        # profiles of 10, 13, 14: (1,1,0,1,0,0), (1,0,1,1,0,0), (1,1,1,0,0,0)
        space = TargetSpace.from_iterable(5, [10, 13, 14])
        assert len(space) == 3
        expected = [1.0, 2 / 3, 2 / 3, 2 / 3, 0.0, 0.0]
        assert np.allclose(space.mean_profile, expected, atol=1e-15)

    def test_row_zero_of_pair_matrix_is_profile(self, rng):
        # counts at distance 0 are identically 1 for member references
        space = random_space(rng, 6, 17)
        assert np.allclose(space.mean_pair[0], space.mean_profile, atol=1e-15)
        assert np.allclose(space.mean_pair[:, 0], space.mean_profile, atol=1e-15)

    def test_pair_matrix_symmetric(self, rng):
        space = random_space(rng, 7, 40)
        assert np.array_equal(space.mean_pair, space.mean_pair.T)

    def test_diagonal_dominates_squared_profile(self, rng):
        for _ in range(10):
            space = random_space(rng, 6)
            assert np.all(space.mean_pair.diagonal() >= space.mean_profile**2 - 1e-12)

    def test_full_space(self):
        # every profile equals the binomial row exactly
        space = TargetSpace.from_iterable(3, range(8))
        row = binomial_row(3)
        assert np.array_equal(space.mean_profile, row)
        assert np.array_equal(space.mean_pair, np.outer(row, row))

    def test_against_slow_recount(self, rng):
        space = random_space(rng, 5, 11)
        profiles = np.array(
            [distance_profile(space, BitString(s, 5)) for s in space.states], dtype=np.int64
        )
        assert np.allclose(space.mean_profile, profiles.mean(axis=0), atol=1e-15)
        pair = np.zeros((6, 6))
        for row in profiles:
            pair += np.outer(row, row)
        assert np.allclose(space.mean_pair, pair / len(space), atol=1e-12)


class TestAggregate:
    def test_size_moments(self):
        # |T| = 2 and 4: mean 3, population variance 1
        spaces = [TargetSpace.from_iterable(3, s) for s in ([1, 2], [0, 3, 5, 6])]
        summary = aggregate(spaces)
        assert summary.e_tsize == 3.0
        assert summary.var_tsize == 1.0
        assert summary.count == 2
        assert summary.mode == "empirical"

    def test_profile_is_mean_of_instances(self, rng):
        spaces = [random_space(rng, 5) for _ in range(6)]
        summary = aggregate(spaces)
        assert np.allclose(
            summary.e_profile, np.mean([s.mean_profile for s in spaces], axis=0), atol=1e-15
        )
        assert np.allclose(
            summary.e_pair, np.mean([s.mean_pair for s in spaces], axis=0), atol=1e-15
        )

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            aggregate([])

    def test_rejects_mixed_widths(self, rng):
        with pytest.raises(UsageError):
            aggregate([random_space(rng, 4), random_space(rng, 5)])

    def test_single_instance_has_zero_variance(self, rng):
        summary = aggregate([random_space(rng, 5, 8)])
        assert summary.var_tsize == 0.0
        assert summary.e_tsize == 8.0
