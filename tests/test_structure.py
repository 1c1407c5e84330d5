import tracemalloc

import numpy as np
import pytest

from qaoa_landscape import storage, structure
from qaoa_landscape._kernels import distance_profiles
from qaoa_landscape.analytic import MODES, UniformModel, summary_analytic
from qaoa_landscape.core import TargetSpace, UsageError, binomial_row, distance_profile
from qaoa_landscape.problems import FAMILIES, build_ensemble
from qaoa_landscape.structure import StructuralSummary, aggregate

from conftest import random_space


class TestInstanceStats:
    """The statistic of one instance: TargetSpace.mean_pair, whose row 0 is the mean profile."""

    def test_hand_values(self):
        # profiles of 10, 13, 14: (1,1,0,1,0,0), (1,0,1,1,0,0), (1,1,1,0,0,0)
        space = TargetSpace.from_iterable(5, [10, 13, 14])
        assert len(space) == 3
        expected = [1.0, 2 / 3, 2 / 3, 2 / 3, 0.0, 0.0]
        assert np.allclose(space.mean_pair[0], expected, atol=1e-15)

    def test_row_zero_of_pair_matrix_is_profile(self, rng):
        # counts at distance 0 are identically 1 for member references
        space = random_space(rng, 6, 17)
        profiles = distance_profiles(space.states, space.n)
        assert np.allclose(space.mean_pair[0], profiles.mean(axis=0), atol=1e-15)
        assert np.allclose(space.mean_pair[:, 0], space.mean_pair[0], atol=1e-15)

    def test_pair_matrix_symmetric(self, rng):
        space = random_space(rng, 7, 40)
        assert np.array_equal(space.mean_pair, space.mean_pair.T)

    def test_diagonal_dominates_squared_profile(self, rng):
        for _ in range(10):
            space = random_space(rng, 6)
            assert np.all(space.mean_pair.diagonal() >= space.mean_pair[0]**2 - 1e-12)

    def test_full_space(self):
        # every profile equals the binomial row exactly: n = 3 on the pairwise route, n = 16 on
        # the shell route's int32 table with pair sums over 16 float64 blocks of 4096 rows
        for n in (3, 16):
            space = TargetSpace.from_iterable(n, range(1 << n))
            row = binomial_row(n)
            assert np.array_equal(space.mean_pair[0], row)
            assert np.array_equal(space.mean_pair, np.outer(row, row))
            doc = storage.summary_to_dict(aggregate([space]))
            assert doc["e_profile"] == row.tolist()
            assert doc["e_pair"] == np.outer(row, row).tolist()

    def test_against_slow_recount(self, rng):
        space = random_space(rng, 5, 11)
        profiles = np.array(
            [distance_profile(space, s) for s in space.states], dtype=np.int64
        )
        assert np.allclose(space.mean_pair[0], profiles.mean(axis=0), atol=1e-15)
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
            summary.e_profile, np.mean([s.mean_pair[0] for s in spaces], axis=0), atol=1e-15
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

    def test_keeps_no_profile_matrix(self, rng):
        # n = 16, |T| = 2^14 takes the shell route; each profile matrix holds 2.2 MB,
        # and each space's int64 states, built with it before tracing, 128 KiB
        spaces = [random_space(rng, 16, 1 << 14) for _ in range(9)]
        _, one_peak = traced(lambda: spaces[8].mean_pair)
        kept, peak = traced(lambda: aggregate(spaces[:8]))
        assert kept < 2**20
        assert peak <= 1.1 * one_peak


    @pytest.mark.parametrize("family", FAMILIES)
    def test_statistics_are_the_stacked_mean(self, family):
        """The running sum has the bits np.mean gives the stacked statistics."""
        n, params = {"sat": (8, {"num_clauses": 24}), "qrfactor": (10, {})}.get(family, (8, {}))
        if family == "uniform":
            params = {"t_size": 40}
        spaces = [inst.target for inst in build_ensemble(family, n, 30, params, 6).instances]
        summary = aggregate(spaces)
        for got, stack in ((summary.e_profile, [s.mean_pair[0] for s in spaces]),
                           (summary.e_pair, [s.mean_pair for s in spaces])):
            want = np.mean(stack, axis=0)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_peak_does_not_grow_with_the_count(self, rng):
        """On warm spaces only |T|, as one float per space, is held per space.

        A stack of the pair matrices would add (n+1)^2 floats, 968 bytes, per space.
        """
        spaces = [random_space(rng, 10, 4) for _ in range(2000)]
        for space in spaces:
            space.mean_pair
        _, few = traced(lambda: aggregate(spaces[:10]))
        _, many = traced(lambda: aggregate(spaces))
        assert many - few <= 16 * len(spaces)


def traced(call) -> tuple[int, int]:
    """Bytes still held after call() returns, and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def summary(e_profile, e_pair, e_tsize=1.0) -> StructuralSummary:
    e_profile = np.array(e_profile, dtype=np.float64)
    return StructuralSummary(
        n=e_profile.size - 1, count=1, e_tsize=e_tsize, var_tsize=0.0,
        e_profile=e_profile, e_pair=np.array(e_pair, dtype=np.float64),
    )


def with_covariance(e_profile, cov) -> StructuralSummary:
    """A summary whose e_pair is outer(e_profile, e_profile) + cov."""
    e_profile = np.array(e_profile, dtype=np.float64)
    return summary(e_profile, np.outer(e_profile, e_profile) + np.array(cov), len(e_profile))


class TestSummaryChecks:
    """StructuralSummary refuses fields that do not fit one another."""

    def test_inconsistent_counts_in_range(self):
        # each count lies in its range, but row 0 says no target is at distance 1 or 2
        row = binomial_row(2)
        with pytest.raises(UsageError, match="e_pair row and column 0 must equal e_profile"):
            summary([1.0, 0.0, 0.0], np.outer(row, row), e_tsize=4.0)

    @pytest.mark.parametrize("first", [0.0, 0.5, 1.0 - 1e-6])
    def test_profile_starts_at_one(self, first):
        with pytest.raises(UsageError, match=r"e_profile\[0\] must be 1"):
            summary([first, 0.0], [[first, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "e_pair",
        [
            [[1.0, 0.5 + 1e-6], [0.5 + 1e-6, 0.5]],
            # symmetric within rounding (1.2e-9 <= 1e-9 * 1.5), but column 0 is
            # off e_profile by more than 1e-9 * C(1, 1)
            [[1.0, 0.5], [0.5 - 1.2e-9, 0.5]],
        ],
        ids=["row", "column"],
    )
    def test_row_and_column_zero_are_the_profile(self, e_pair):
        with pytest.raises(UsageError, match="row and column 0"):
            summary([1.0, 0.5], e_pair)

    @pytest.mark.parametrize(
        "cov",
        [
            [[0.0, 0.0, 0.0], [0.0, -1e-3, 0.0], [0.0, 0.0, 0.0]],  # a negative variance
            # variances fine, but 0.5^2 > 0.5 * 0.25
            [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.25]],
        ],
        ids=["variance", "correlation"],
    )
    def test_covariance_not_semidefinite(self, cov):
        with pytest.raises(UsageError, match="must be positive semidefinite"):
            with_covariance([1.0, 1.0, 0.5], cov)

    def test_covariance_rounding_allowed(self):
        # an eigenvalue of -1e-12 times the largest e_pair entry is rounding
        with_covariance([1.0, 1.0, 0.5], np.diag([0.0, 0.5, -1.5e-12]))

    def test_checked_before_any_landscape(self):
        with pytest.raises(UsageError, match="e_tsize must be in"):
            summary([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], e_tsize=0.0)
        with pytest.raises(UsageError, match="arrays do not match n"):
            summary([1.0, 0.0], [[1.0]])
        with pytest.raises(UsageError, match="count must be a non-negative integer"):
            StructuralSummary(1, -1, 1.0, 0.0, np.array([1.0, 0.0]), np.eye(2))

    def test_one_validator_for_every_route(self, monkeypatch):
        checked = []
        original = StructuralSummary.__post_init__

        def counted(self):
            checked.append(self.mode)
            original(self)

        monkeypatch.setattr(StructuralSummary, "__post_init__", counted)
        built = aggregate([TargetSpace(2, (0, 3))])
        summary_analytic(UniformModel(2, 2, "paper"))
        storage.summary_from_dict(storage.summary_to_dict(built))
        assert checked == ["empirical", "paper", "empirical"]
        # the loader only prefixes what the type refuses
        doc = storage.summary_to_dict(built) | {"e_profile": [1.0, 0.5, 0.0]}
        with pytest.raises(UsageError, match="^summary e_pair row and column 0"):
            storage.summary_from_dict(doc)


@pytest.mark.parametrize("n", range(1, structure.MAX_WIDTH + 1))
def test_every_analytic_summary_passes(n):
    """Seven sizes t at each n (fewer where they coincide), both modes."""
    states = 1 << n
    sizes = (1, 2, 3, states // 3, states // 2, states - 1, states)
    for t in {min(t, states) for t in sizes} - {0}:
        for mode in MODES:
            summary_analytic(UniformModel(n, t, mode))


@pytest.mark.parametrize("family", FAMILIES)
def test_aggregated_ensembles_pass(family):
    n, params = {"sat": (8, {"num_clauses": 24}), "qrfactor": (10, {})}.get(family, (8, {}))
    if family == "uniform":
        params = {"t_size": 40}
    for seed in range(3):
        aggregate([inst.target for inst in build_ensemble(family, n, 12, params, seed).instances])
