import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoa_landscape._kernels import PAIRWISE_ROUTE, SHELL_ROUTE, distance_profiles, profile_route
from qaoa_landscape.core import (
    _PAIR_BLOCK,
    MAX_GRID_POINTS,
    Angles,
    AngleGrid,
    TargetSpace,
    UsageError,
    binomial,
    binomial_row,
    default_grid,
    distance_profile,
    exact_pair_sums,
    streams,
)

from conftest import BOUNDARY_IDS, BOUNDARY_SEED, numpy_stream, random_space


def hamming(width: int, a: int, b: int) -> int:
    """The distance between a and b, read off the profile of a one-state space."""
    (distance,) = np.flatnonzero(distance_profile(TargetSpace(width, (b,)), a))
    return int(distance)


class TestHamming:
    def test_known_distance(self):
        # 01010 xor 01101 = 00111
        assert hamming(5, 10, 13) == 3

    def test_adjacent_states(self):
        assert hamming(5, 10, 14) == 1
        assert hamming(5, 13, 14) == 2

    def test_width_mismatch(self):
        with pytest.raises(UsageError):
            hamming(3, 8, 1)  # the reference needs 4 bits

    @given(st.integers(1, 16), st.data())
    def test_metric_properties(self, width, data):
        a, b = (data.draw(st.integers(0, (1 << width) - 1)) for _ in range(2))
        d = hamming(width, a, b)
        assert 0 <= d <= width
        assert d == hamming(width, b, a)
        assert (d == 0) == (a == b)

    @given(st.integers(1, 12), st.data())
    def test_triangle_inequality(self, width, data):
        a, b, c = (data.draw(st.integers(0, (1 << width) - 1)) for _ in range(3))
        assert hamming(width, a, c) <= hamming(width, a, b) + hamming(width, b, c)


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
        # an exact Python int at any n: zero below n = 0, no cap above
        assert binomial(-1, 0) == 0
        assert binomial(65, 1) == 65
        assert binomial(64, 32) == math.comb(64, 32)

    @given(st.integers(0, 64), st.integers(0, 64))
    def test_symmetry(self, n, d):
        assert binomial(n, d) == binomial(n, n - d)

    def test_row_sums_to_power_of_two(self):
        for n in range(0, 20):
            assert binomial_row(n).sum() == 2**n

    def test_row_is_exact_to_n56(self):
        for n in range(0, 57):
            assert [int(c) for c in binomial_row(n)] == [math.comb(n, d) for d in range(n + 1)]
        assert int(binomial_row(57)[25]) != math.comb(57, 25)  # the first entry that rounds


class TestTargetSpace:
    def test_from_iterable_sorts_and_dedupes(self):
        space = TargetSpace.from_iterable(3, [5, 1, 5, 2])
        assert space.states.tolist() == [1, 2, 5]

    def test_from_iterable_takes_numpy_integers(self):
        space = TargetSpace.from_iterable(3, [np.int8(5), 1, np.uint64(2), np.int64(5)])
        assert space.states.tolist() == [1, 2, 5]

    @pytest.mark.parametrize(
        "given, state",
        [([1.5], "1.5"), (["1"], "'1'"), (np.array([True, False]), "True"),
         ([2, True], "True"), ([1, 1.0], "1.0"), ([np.True_], "True"), ([np.float64(2.0)], "2.0")],
    )
    def test_from_iterable_refuses_what_the_constructor_refuses(self, given, state):
        # int() would read 1.5 and '1' as 1 and a bool array as [0, 1]
        with pytest.raises(UsageError, match=f"^state {state} does not fit 3 bits$"):
            TargetSpace.from_iterable(3, given)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            TargetSpace(3, ())

    def test_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            TargetSpace(3, (8,))
        for n in (0, 33):
            with pytest.raises(UsageError, match=rf"^n must be in \[1, 32\], got {n}$"):
                TargetSpace(n, [0])

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

    @pytest.mark.parametrize("given", [np.array([True, False]), np.array([1.0, 2.0])])
    def test_rejects_non_integer_arrays(self, given):
        with pytest.raises(UsageError, match=f"state {given.tolist()[0]!r} does not fit 3 bits"):
            TargetSpace(3, given)

    @pytest.mark.parametrize(
        "state, given",
        [
            (-1, np.array([-1, 1])),
            (8, np.array([1, 8], dtype=np.uint64)),
            (8, np.array([1, 8], dtype=object)),
            (2**63, [1, 2**63]),
            (2**64 - 1, np.array([1, 2**64 - 1], dtype=np.uint64)),
            (2**70, [1, 2**70]),
        ],
    )
    def test_out_of_range_refused_on_both_routes(self, state, given):
        for build in (TargetSpace, TargetSpace.from_iterable):
            with pytest.raises(UsageError, match=f"state {state} does not fit 3 bits"):
                build(3, given)

    @pytest.mark.parametrize(
        "given",
        [(1, 6), [1, 6], np.array([1, 6]), np.array([1, 6], dtype=np.uint8), np.array([1, 6], dtype=object)],
    )
    def test_states_are_one_read_only_int64_array(self, given):
        states = TargetSpace(3, given).states
        assert states.dtype == np.int64 and states.ndim == 1 and states.flags.c_contiguous
        assert states.tolist() == [1, 6] and not states.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            states[0] = 0
        if isinstance(given, np.ndarray):  # the caller's array is copied, not frozen
            assert given.flags.writeable

    def test_retains_about_one_int64_per_state(self, rng):
        # 2^16 states: 512 KiB as int64; as a tuple of new Python ints, about 2.5 MiB
        given = rng.permutation(1 << 16)
        tracemalloc.start()
        try:
            space = TargetSpace.from_iterable(16, given)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(space) == 1 << 16
        assert kept <= 10 << 16

    @settings(deadline=None)
    @given(
        st.integers(1, 12),
        st.sampled_from(
            [list, set, lambda xs: (x for x in xs)]
            + [lambda xs, t=t: np.array(xs, dtype=t) for t in (np.int32, np.int64, np.uint64)]
        ),
        st.data(),
    )
    def test_from_iterable_is_the_sorted_set(self, n, container, data):
        xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
        xs += data.draw(st.lists(st.sampled_from(xs), max_size=10))  # duplicates
        space = TargetSpace.from_iterable(n, container(xs))
        assert space.states.tolist() == sorted(set(map(int, xs)))

    def test_means_divide_the_exact_sums_once(self, rng):
        for n, m, route in ((6, 9, PAIRWISE_ROUTE), (10, 600, SHELL_ROUTE)):
            assert profile_route(n, m) == route
            space = random_space(rng, n, m)
            profiles = distance_profiles(space.states, n).astype(np.int64)
            assert np.array_equal(space.mean_pair[0], profiles.sum(0) / m)
            assert np.array_equal(space.mean_pair, exact_pair_sums(profiles) / m)
            assert space.mean_pair is space.mean_pair  # cached, not rebuilt per read


class TestExactPairSums:
    def test_largest_exact_products_pass(self):
        # one row of 2^21 - 1: its cube is the largest below 2^63
        profiles = np.array([[(1 << 21) - 1, 0]], dtype=np.int64)
        assert exact_pair_sums(profiles).tolist() == [[((1 << 21) - 1) ** 2, 0], [0, 0]]

    def test_products_that_would_wrap_are_refused(self):
        for profiles in (
            [[1 << 31, 0], [1 << 31, 0]],  # two rows of 2^31: the diagonal sum, 2^63, wraps int64
            [[1 << 31, 3]],  # one row of 2^31: 2^62 fits int64, but 2^31 * 2^62 does not
            [[1 << 21, 0]],  # one row of 2^21: the cube is 2^63, the edge of the domain
        ):
            with pytest.raises(UsageError, match="overflow int64"):
                exact_pair_sums(np.array(profiles, dtype=np.int64))

    def test_full_space_at_n23_is_refused(self):
        # every row of the full space at n=23 is C(23, d); sum_x C(23, 11)^2 ~ 1.5e19
        row = np.array([math.comb(23, d) for d in range(24)], dtype=np.int64)
        profiles = np.broadcast_to(row, (1 << 23, 24))
        with pytest.raises(UsageError, match="overflow int64"):
            exact_pair_sums(profiles)


def int64_pair_sums(profiles):
    """The oracle of `exact_pair_sums`: numpy's int64 matmul, exact below the wrap bound."""
    return profiles.T @ profiles


def largest_peak(m: int) -> int:
    """The largest count `exact_pair_sums` takes over m rows: max(m, peak) * peak^2 < 2^63."""
    return min(math.isqrt(((1 << 63) - 1) // m), (1 << 21) - 1)


@st.composite
def profile_matrices(draw):
    """Non-negative (m, width) int64 matrices with max(m, max) * max^2 < 2^63.

    m runs past one gemm block; the peak is small (full float64 blocks),
    anywhere up to `largest_peak(m)`, or at it (blocks of 2048 rows).
    """
    m = draw(st.one_of(st.integers(1, 50), st.integers(_PAIR_BLOCK - 1, 2 * _PAIR_BLOCK + 1)))
    width = draw(st.integers(1, 24))
    top = largest_peak(m)
    peak = draw(st.one_of(st.integers(0, 1 << 20), st.integers(0, top), st.just(top)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profiles = rng.integers(0, peak, size=(m, width), endpoint=True, dtype=np.int64)
    profiles[draw(st.integers(0, m - 1)), draw(st.integers(0, width - 1))] = peak
    return profiles


NARROW_TYPES = (np.int8, np.int16, np.int32)


@st.composite
def narrow_profile_matrices(draw):
    """Non-negative (m, width) int8, int16 or int32 matrices with max(m, max) * max^2 < 2^63.

    The peak is small, anywhere up to the type's limit or `largest_peak(m)`,
    or at that limit: int32 reaches blocks of fewer rows than _PAIR_BLOCK
    (2^20.5 and more).  Half are Fortran-ordered, as the shell route's
    transposed gather is.
    """
    dtype = draw(st.sampled_from(NARROW_TYPES))
    m = draw(st.one_of(st.integers(1, 50), st.integers(_PAIR_BLOCK - 1, 2 * _PAIR_BLOCK + 1)))
    width = draw(st.integers(1, 24))
    top = min(int(np.iinfo(dtype).max), largest_peak(m))
    peak = draw(st.one_of(st.integers(0, min(top, 100)), st.integers(0, top), st.just(top)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profiles = rng.integers(0, peak, size=(m, width), endpoint=True, dtype=dtype)
    profiles[draw(st.integers(0, m - 1)), draw(st.integers(0, width - 1))] = peak
    if draw(st.booleans()):
        profiles = np.ascontiguousarray(profiles.T).T
    return profiles


class TestPairSumBlocks:
    @settings(max_examples=60, deadline=None)
    @given(profile_matrices())
    def test_equals_the_int64_oracle(self, profiles):
        got = exact_pair_sums(profiles)
        assert got.dtype == np.int64
        assert np.array_equal(got, int64_pair_sums(profiles))

    @settings(max_examples=80, deadline=None)
    @given(narrow_profile_matrices())
    def test_narrow_types_equal_the_int64_oracle(self, profiles):
        got = exact_pair_sums(profiles)
        assert got.dtype == np.int64
        assert np.array_equal(got, int64_pair_sums(profiles.astype(np.int64)))

    @pytest.mark.parametrize(
        "dtype,m,peak",
        [
            (np.int8, 3, 127),  # one float64 block
            (np.int16, 3 * _PAIR_BLOCK + 5, (1 << 15) - 1),  # four float64 blocks
            (np.int32, _PAIR_BLOCK - 1, 1 << 20),  # one block: 4095 rows of 2^40 stay below 2^53
            (np.int32, _PAIR_BLOCK - 1, largest_peak(_PAIR_BLOCK - 1)),  # blocks of 2048 rows
            (np.int32, 3, largest_peak(3)),  # one block, at the edge of the domain
        ],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_narrow_constant_rows(self, dtype, m, peak, order):
        profiles = np.full((m, 3), peak, dtype=dtype, order=order)
        got = exact_pair_sums(profiles)
        assert np.array_equal(got, int64_pair_sums(profiles.astype(np.int64)))
        assert np.all(got == m * peak * peak)

    def test_narrow_products_that_would_wrap_are_refused(self):
        # three int32 rows of 2^31 - 1: 3 (2^31 - 1)^2 wraps int64
        profiles = np.full((3, 2), (1 << 31) - 1, dtype=np.int32)
        with pytest.raises(UsageError, match="overflow int64"):
            exact_pair_sums(profiles)

    @pytest.mark.parametrize(
        "m,peak",
        [
            (3, (1 << 20) - 1),  # one float64 block
            (3, largest_peak(3)),  # one float64 block, at the edge of the domain
            (3 * _PAIR_BLOCK + 5, (1 << 20) - 1),  # four float64 blocks
            (3 * _PAIR_BLOCK + 5, largest_peak(3 * _PAIR_BLOCK + 5)),  # seven blocks of 2048 rows
        ],
    )
    def test_constant_rows(self, m, peak):
        # every entry of P^T P is m * peak^2, the largest sum the counts allow
        profiles = np.full((m, 3), peak, dtype=np.int64)
        assert np.all(exact_pair_sums(profiles) == m * peak * peak)

    @pytest.mark.parametrize("m", [4096, 8192])
    def test_counts_just_below_2_to_the_21(self, m):
        # peak^2 is just below 2^42, so blocks hold 2048 rows; one 4096-row
        # float64 gemm would sum past 2^53 and round most entries
        rng = np.random.default_rng(m)
        profiles = rng.integers((1 << 21) - 4096, 1 << 21, size=(m, 3), dtype=np.int64)
        assert np.array_equal(exact_pair_sums(profiles), int64_pair_sums(profiles))

    @pytest.mark.parametrize("n,size", [(14, 4096), (14, 9000), (16, 1 << 16)])
    def test_dense_target_sets(self, rng, n, size):
        profiles = distance_profiles(random_space(rng, n, size).states, n)
        assert np.array_equal(exact_pair_sums(profiles), int64_pair_sums(profiles.astype(np.int64)))


class TestDistanceProfile:
    def test_hand_counts(self):
        # distances from 10 to {10, 13, 14} are 0, 3, 1
        space = TargetSpace.from_iterable(5, [10, 13, 14])
        profile = distance_profile(space, 10)
        assert profile.tolist() == [1, 1, 0, 1, 0, 0]

    def test_nonmember_reference(self):
        space = TargetSpace.from_iterable(3, [0b111])
        profile = distance_profile(space, 0)
        assert profile[0] == 0
        assert profile.tolist() == [0, 0, 0, 1]

    def test_width_mismatch(self):
        space = TargetSpace.from_iterable(3, [1])
        for k in (8, -1, True, 1.0, np.int64(8), np.True_):  # too wide, negative, not an int
            with pytest.raises(UsageError, match="does not fit 3 bits"):
                distance_profile(space, k)

    @given(st.integers(1, 8), st.data())
    def test_profile_sums_to_size(self, n, data):
        states = data.draw(
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(32, 1 << n))
        )
        space = TargetSpace.from_iterable(n, states)
        k = data.draw(st.integers(0, (1 << n) - 1))
        profile = distance_profile(space, k)
        assert profile.sum() == len(space)
        assert profile[0] == (1 if k in states else 0)

    def test_matches_profile_matrix_rows(self, rng):
        space = random_space(rng, 6, 20)
        profiles = distance_profiles(space.states, space.n)
        for i, state in enumerate(space.states):  # np.int64 members, as the array holds them
            expected = distance_profile(space, state)
            assert np.array_equal(profiles[i], expected)


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
        assert MAX_GRID_POINTS == 10**6
        AngleGrid(0.0, 1.0, 0.0, 1.0, 1000, 1000)  # exactly at the bound
        AngleGrid(0.0, 1.0, 0.0, 1.0, 1, MAX_GRID_POINTS)
        for steps in ((1000, 1001), (MAX_GRID_POINTS + 1, 1), (20000, 20000)):
            with pytest.raises(UsageError, match=f"more than {MAX_GRID_POINTS}"):
                AngleGrid(0.0, 1.0, 0.0, 1.0, *steps)

    @pytest.mark.parametrize("steps", [(3, 0), (3, -1), (0, 3)])
    def test_default_grid_refuses_an_empty_axis(self, steps):
        # the gamma window is not divided by a step count below 1 first
        with pytest.raises(UsageError, match="^grid must have at least one point per axis$"):
            default_grid(*steps)

    def test_default_grid_excludes_full_turn(self):
        grid = default_grid(10, 8)
        assert grid.betas()[-1] == math.pi
        assert grid.gammas()[-1] < 2 * math.pi


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 7, BOUNDARY_SEED])
    def test_each_stream_is_numpys_stream_of_its_key(self, seed):
        ids = [0, 1, *BOUNDARY_IDS]
        keys = [(i,) for i in ids] + [(i, arm) for i in ids for arm in (0, 1)]
        got = [rng.random(4).tolist() for rng in streams(seed, keys)]
        assert got == [numpy_stream(seed, key).random(4).tolist() for key in keys]

    def test_seeds_keys_and_arms_give_distinct_streams(self):
        keys = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        firsts = [int(rng.integers(2**63)) for rng in streams(1, keys)]
        firsts += [int(rng.integers(2**63)) for rng in streams(2, keys)]
        assert len(set(firsts)) == 2 * len(keys)

    def test_streams_are_built_lazily_in_key_order(self):
        keys = iter([(i,) for i in range(10)])  # each key is read when its stream is taken
        taken = list(itertools.islice(streams(3, keys), 3))
        assert next(keys, None) == (3,)
        want = [numpy_stream(3, (i,)).random() for i in range(3)]
        assert [rng.random() for rng in taken] == want
