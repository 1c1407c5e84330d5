import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qaoa_landscape.core import (
    Angles,
    AngleGrid,
    BitString,
    TargetSpace,
    UsageError,
    binomial,
    binomial_row,
    default_grid,
    distance_profile,
    exact_pair_sums,
    hamming_distance,
)

from conftest import random_space


@st.composite
def bitstring_pairs(draw):
    width = draw(st.integers(1, 16))
    a = draw(st.integers(0, (1 << width) - 1))
    b = draw(st.integers(0, (1 << width) - 1))
    return BitString(a, width), BitString(b, width)


class TestBitString:
    def test_str_is_binary(self):
        assert str(BitString(10, 5)) == "01010"

    def test_value_must_fit_width(self):
        with pytest.raises(UsageError):
            BitString(4, 2)
        with pytest.raises(UsageError):
            BitString(-1, 4)

    def test_width_bounds(self):
        with pytest.raises(UsageError):
            BitString(0, 0)
        with pytest.raises(UsageError):
            BitString(0, 33)
        BitString((1 << 32) - 1, 32)  # max width is fine


class TestHamming:
    def test_known_distance(self):
        # 01010 xor 01101 = 00111
        assert hamming_distance(BitString(10, 5), BitString(13, 5)) == 3

    def test_adjacent_states(self):
        assert hamming_distance(BitString(10, 5), BitString(14, 5)) == 1
        assert hamming_distance(BitString(13, 5), BitString(14, 5)) == 2

    def test_width_mismatch(self):
        with pytest.raises(UsageError):
            hamming_distance(BitString(1, 3), BitString(1, 4))

    @given(bitstring_pairs())
    def test_metric_properties(self, pair):
        a, b = pair
        d = hamming_distance(a, b)
        assert 0 <= d <= a.width
        assert d == hamming_distance(b, a)
        assert (d == 0) == (a.value == b.value)

    @given(st.integers(1, 12), st.data())
    def test_triangle_inequality(self, width, data):
        vals = [data.draw(st.integers(0, (1 << width) - 1)) for _ in range(3)]
        a, b, c = (BitString(v, width) for v in vals)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestBinomial:
    def test_known_value(self):
        assert binomial(5, 2) == 10

    def test_edges(self):
        assert binomial(0, 0) == 1
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_out_of_range_d_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_n_bounds(self):
        with pytest.raises(UsageError):
            binomial(-1, 0)
        with pytest.raises(UsageError):
            binomial(65, 1)
        assert binomial(64, 32) == math.comb(64, 32)  # largest supported case

    @given(st.integers(0, 64), st.integers(0, 64))
    def test_symmetry(self, n, d):
        assert binomial(n, d) == binomial(n, n - d)

    def test_row_sums_to_power_of_two(self):
        for n in range(0, 20):
            assert binomial_row(n).sum() == 2**n


class TestTargetSpace:
    def test_from_iterable_sorts_and_dedupes(self):
        space = TargetSpace.from_iterable(3, [5, 1, 5, 2])
        assert space.states == (1, 2, 5)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            TargetSpace(3, ())

    def test_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            TargetSpace(3, (8,))

    def test_rejects_unsorted(self):
        with pytest.raises(UsageError, match="states must ascend"):
            TargetSpace(3, (2, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(UsageError, match="duplicate target states"):
            TargetSpace(3, (1, 1))

    @pytest.mark.parametrize("state", [True, False, 1.0])
    def test_rejects_non_int_states(self, state):
        with pytest.raises(UsageError, match="does not fit 3 bits"):
            TargetSpace(3, (state,))

    def test_means_divide_the_exact_sums_once(self, rng):
        space = random_space(rng, 6, 9)
        assert np.array_equal(space.mean_profile, space.profiles.sum(0) / 9)
        assert np.array_equal(space.mean_pair, exact_pair_sums(space.profiles) / 9)
        assert space.mean_pair is space.mean_pair  # cached, not rebuilt per read


class TestExactPairSums:
    def test_largest_exact_products_pass(self):
        # one row of 2^31: its square, 2^62, still fits int64
        profiles = np.array([[1 << 31, 3]], dtype=np.int64)
        assert exact_pair_sums(profiles).tolist() == [[1 << 62, 3 << 31], [3 << 31, 9]]

    def test_products_that_would_wrap_are_refused(self):
        # two rows of 2^31: the diagonal sum, 2^63, wraps int64
        profiles = np.array([[1 << 31, 0], [1 << 31, 0]], dtype=np.int64)
        with pytest.raises(UsageError, match="overflow int64"):
            exact_pair_sums(profiles)

    def test_full_space_at_n23_is_refused(self):
        # every row of the full space at n=23 is C(23, d); sum_x C(23, 11)^2 ~ 1.5e19
        row = np.array([math.comb(23, d) for d in range(24)], dtype=np.int64)
        profiles = np.broadcast_to(row, (1 << 23, 24))
        with pytest.raises(UsageError, match="overflow int64"):
            exact_pair_sums(profiles)


class TestDistanceProfile:
    def test_hand_counts(self):
        # distances from 10 to {10, 13, 14} are 0, 3, 1
        space = TargetSpace.from_iterable(5, [10, 13, 14])
        profile = distance_profile(space, BitString(10, 5))
        assert profile.tolist() == [1, 1, 0, 1, 0, 0]

    def test_nonmember_reference(self):
        space = TargetSpace.from_iterable(3, [0b111])
        profile = distance_profile(space, BitString(0, 3))
        assert profile[0] == 0
        assert profile.tolist() == [0, 0, 0, 1]

    def test_width_mismatch(self):
        space = TargetSpace.from_iterable(3, [1])
        with pytest.raises(UsageError):
            distance_profile(space, BitString(1, 4))

    @given(st.integers(1, 8), st.data())
    def test_profile_sums_to_size(self, n, data):
        states = data.draw(
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(32, 1 << n))
        )
        space = TargetSpace.from_iterable(n, states)
        k = data.draw(st.integers(0, (1 << n) - 1))
        profile = distance_profile(space, BitString(k, n))
        assert profile.sum() == len(space)
        assert profile[0] == (1 if k in states else 0)

    def test_matches_profile_matrix_rows(self, rng):
        space = random_space(rng, 6, 20)
        for i, state in enumerate(space.states):
            expected = distance_profile(space, BitString(state, 6))
            assert np.array_equal(space.profiles[i], expected)


class TestAngles:
    def test_rejects_non_finite(self):
        with pytest.raises(UsageError):
            Angles(math.nan, 0.0)
        with pytest.raises(UsageError):
            Angles(0.0, math.inf)


class TestAngleGrid:
    def test_lattice_is_inclusive(self):
        grid = AngleGrid(0.0, 1.0, 0.0, 2.0, 3, 5)
        assert grid.betas().tolist() == [0.0, 0.5, 1.0]
        assert len(grid.gammas()) == 5
        assert grid.gammas()[-1] == 2.0

    def test_single_point_axis(self):
        grid = AngleGrid(0.5, 0.5, 1.0, 1.0, 1, 1)
        assert grid.betas().tolist() == [0.5]

    def test_validation(self):
        with pytest.raises(UsageError):
            AngleGrid(1.0, 0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(UsageError):
            AngleGrid(0.0, 1.0, 0.0, 1.0, 0, 2)
        with pytest.raises(UsageError):
            AngleGrid(math.nan, 1.0, 0.0, 1.0, 2, 2)

    def test_default_grid_excludes_full_turn(self):
        grid = default_grid(10, 8)
        assert grid.betas()[-1] == math.pi
        assert grid.gammas()[-1] < 2 * math.pi
