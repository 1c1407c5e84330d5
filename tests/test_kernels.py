import math
import tracemalloc
from functools import reduce
from itertools import combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoa_landscape import _kernels
from qaoa_landscape.core import _PAIR_BLOCK, TargetSpace, cache_mean_pairs, exact_pair_sums
from qaoa_landscape._kernels import (
    PAIRWISE_ROUTE,
    SHELL_BATCH_BYTES,
    SHELL_ROUTE,
    apply_mixer,
    distance_profiles,
    pairwise_profiles,
    profile_route,
    profiles,
    shell_batch,
    shell_table_bytes,
)

from conftest import random_space
from profile_oracle import distance_profile


def shell_profiles(states, n):
    """The shell route's profile matrix of one set: a batch of one."""
    return next(shell_batch([states], n))


PROFILE_KERNELS = [pairwise_profiles, shell_profiles]


def random_states(rng, n, m):
    return rng.choice(1 << n, size=m, replace=False)


def brute_force_profiles(states, n):
    values = [int(s) for s in states]
    out = np.zeros((len(values), n + 1), dtype=np.int64)
    for i, a in enumerate(values):
        for b in values:
            out[i, (a ^ b).bit_count()] += 1
    return out


def table_type(m):
    """The shell table's type for m targets: the narrowest signed int that holds m."""
    return np.int8 if m < 1 << 7 else np.int16 if m < 1 << 15 else np.int32


def random_amps(rng, n):
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


class TestPairwiseProfiles:
    """Each test runs both profile kernels, pairwise and shells."""

    # a pairwise block holds 2^19 // m rows: m=1500 spans five blocks of 349
    # rows, the last one partial; shells return their table's type
    @pytest.mark.parametrize("n,m", [(1, 2), (4, 7), (8, 100), (11, 600), (12, 1500)])
    def test_matches_brute_force(self, rng, n, m):
        states = random_states(rng, n, m)
        want = brute_force_profiles(states, n)
        for kernel, dtype in ((pairwise_profiles, np.int64), (shell_profiles, table_type(m))):
            profiles = kernel(states, n)
            assert profiles.dtype == dtype, kernel.__name__
            assert np.array_equal(profiles, want), kernel.__name__

    def test_rows_sum_to_m(self, rng):
        states = random_states(rng, 6, 23)
        for kernel in PROFILE_KERNELS:
            assert np.all(kernel(states, 6).sum(axis=1) == 23), kernel.__name__

    def test_self_distance(self, rng):
        states = random_states(rng, 6, 23)
        for kernel in PROFILE_KERNELS:
            # distinct states: only self at d=0
            assert np.all(kernel(states, 6)[:, 0] == 1), kernel.__name__


@st.composite
def state_sets(draw):
    n = draw(st.integers(1, 10))
    states = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n))
    order = draw(st.permutations(sorted(states)))
    return n, np.array(order, dtype=np.int64)


class TestShellsAgainstPairwise:
    @settings(max_examples=80, deadline=None)
    @given(state_sets())
    def test_equal_int64_arrays(self, case):
        # equal values: int64 from the pairwise route, the table's narrow type
        # from shells (m <= 2^10 here, so int8 or int16)
        n, states = case
        shells = shell_profiles(states, n)
        pairwise = pairwise_profiles(states, n)
        assert pairwise.dtype == np.int64 and shells.dtype == table_type(len(states))
        assert np.array_equal(shells, pairwise)


def star(n, d, m):
    """State 0 and m - 1 states of weight d: row 0 counts m - 1 at distance d."""
    weight_d = (sum(1 << q for q in bits) for bits in combinations(range(n), d))
    return np.array([0, *islice(weight_d, m - 1)], dtype=np.int64)


class TestShellTableWidths:
    """The shell table's integer type widens at m = 128 and m = 32768.

    Each case holds a row whose largest count is m - 1, the most any target's
    row can hold away from distance 0; one past each switch point that count
    no longer fits the narrower type, so a switch made too late shows in the
    values, and one made too early in the type the profiles come back in.
    """

    @pytest.mark.parametrize("m", [127, 128, 129])
    def test_int8_to_int16(self, m):
        # the star, and the first m states: at m = 128 the whole n=7 space
        for states in (star(10, 4, m), np.arange(m, dtype=np.int64)):
            shells = shell_profiles(states, 10)
            pairwise = pairwise_profiles(states, 10)
            assert shells.dtype == table_type(m) and pairwise.dtype == np.int64
            assert np.array_equal(shells, pairwise)  # shapes included

    @pytest.mark.parametrize("m", [32767, 32768, 32769])
    def test_int16_to_int32(self, rng, m):
        # the pairwise kernel takes ~10 s at this m, so rows are checked one
        # by one against the per-reference oracle: row 0 and a random sample
        n = 18
        states = star(n, 9, m)
        shells = shell_profiles(states, n)
        assert shells.dtype == table_type(m) and shells.shape == (m, n + 1)
        assert shells[0, 9] == m - 1
        assert np.all(shells.sum(axis=1) == m)
        space = TargetSpace.from_iterable(n, states.tolist())
        for row in [0, m - 1, *rng.choice(m, size=200, replace=False).tolist()]:
            assert np.array_equal(shells[row], distance_profile(space, int(states[row])))


def mean_pair_bits(profiles) -> np.ndarray:
    return (exact_pair_sums(profiles) / len(profiles)).view(np.uint64)


class TestShellBatch:
    """One table for a batch of sets gives each set the profiles, and mean_pair bits, of its own."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_each_set_as_alone(self, rng, n):
        # one target, the full space and three random sizes, in one table
        sizes = [1, 1 << n, *rng.integers(1, (1 << n) + 1, size=3).tolist()]
        batch = [random_states(rng, n, m) for m in sizes]
        for states, profiles in zip(batch, shell_batch(batch, n), strict=True):
            alone = shell_profiles(states, n)
            assert profiles.dtype == table_type(max(sizes)) and alone.dtype == table_type(len(states))
            assert np.array_equal(profiles, alone)
            assert np.array_equal(mean_pair_bits(profiles), mean_pair_bits(alone))
            if n <= 10:
                assert np.array_equal(profiles, pairwise_profiles(states, n))

    def test_mixed_sizes_across_the_int8_boundary(self, rng):
        # m = 127 alone fits int8; beside m = 128 its counts share an int16 table
        batch = [star(10, 4, 127), star(10, 5, 128), random_states(rng, 10, 127)]
        for states, profiles in zip(batch, shell_batch(batch, 10), strict=True):
            assert profiles.dtype == np.int16
            assert np.array_equal(profiles, pairwise_profiles(states, 10))
            assert np.array_equal(mean_pair_bits(profiles), mean_pair_bits(shell_profiles(states, 10)))

    def test_table_bytes(self):
        # four u14 int16 tables fill the cap; a fifth, or one int32 table at n = 16, does not fit
        assert shell_table_bytes(14, 4, 4096) == 4 * 15 * 2 * (1 << 14) <= SHELL_BATCH_BYTES
        assert shell_table_bytes(14, 5, 4096) > SHELL_BATCH_BYTES
        assert shell_table_bytes(14, 4, 127) == 4 * 15 * (1 << 14)
        assert shell_table_bytes(16, 1, 1 << 15) > SHELL_BATCH_BYTES

    def test_batches_cut_by_the_cap(self, rng, monkeypatch):
        # one width at a time: 19 int16 tables of n = 12 fit the cap, and a pairwise space
        # and a cached one among them cut no batch; n = 11 and n = 16 (past the cap) run alone
        batches = []
        batch_kernel = _kernels.shell_batch

        def recorded(states, n):
            batches.append((n, [len(s) for s in states]))
            return batch_kernel(states, n)

        dense = [random_space(rng, 12, int(m)) for m in rng.integers(900, 4096, size=25)]
        cached = random_space(rng, 12, 2048)
        cached.mean_pair
        widths = [[*dense[:20], random_space(rng, 12, 3), cached, *dense[20:]],
                  [random_space(rng, 11, 2000)], [random_space(rng, 16, 1 << 15)]]
        monkeypatch.setattr(_kernels, "shell_batch", recorded)
        for spaces in widths:
            cache_mean_pairs(spaces)
        assert [(n, len(sizes)) for n, sizes in batches] == [(12, 19), (12, 6), (11, 1), (16, 1)]
        assert all(shell_table_bytes(n, len(sizes), max(sizes)) <= SHELL_BATCH_BYTES
                   for n, sizes in batches[:-1])
        monkeypatch.setattr(_kernels, "shell_batch", batch_kernel)
        for space in sum(widths, []):
            alone = TargetSpace(space.n, space.states).mean_pair
            assert "mean_pair" in vars(space)
            assert np.array_equal(space.mean_pair.view(np.uint64), alone.view(np.uint64))

    def test_no_cold_space_calls_no_kernel(self, rng, monkeypatch):
        warm = random_space(rng, 12, 2048)
        warm.mean_pair
        for name in ("shell_batch", "pairwise_profiles"):
            monkeypatch.setattr(_kernels, name, None)  # a call would raise
        cache_mean_pairs([])
        cache_mean_pairs([warm])


@st.composite
def route_mixes(draw):
    """Sets of one width n <= 10 on both routes, and a cap of a few tables or less.

    The sizes cross the int8/int16 boundary (128 targets take the shell route
    at n = 7); the cap sits at, or one byte either side of, k int8 tables.
    """
    n = draw(st.integers(5, 10))
    size = st.integers(1, 1 << n) | st.sampled_from([min(127, 1 << n), min(128, 1 << n)])
    sizes = draw(st.lists(size, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = draw(st.integers(0, 6)) * ((n + 1) << n) + draw(st.sampled_from([-1, 0, 1]))
    return n, [random_states(rng, n, m) for m in sizes], cap


class TestProfiles:
    """`profiles` yields every set's matrix once, and shares tables as its docstring says."""

    @settings(max_examples=120, deadline=None)
    @given(route_mixes())
    def test_each_set_once_with_pairwise_values(self, case):
        n, sets, cap = case
        batches = []

        def recorded(batch, n):
            batches.append([next(i for i, s in enumerate(sets) if s is states) for states in batch])
            return shell_batch(batch, n)

        with mock.patch.object(_kernels, "SHELL_BATCH_BYTES", cap), \
                mock.patch.object(_kernels, "shell_batch", recorded):
            order = []
            for i, got in profiles(sets, n):
                shells = profile_route(n, len(sets[i])) == SHELL_ROUTE
                batch = batches[-1] if shells else [i]
                assert i in batch and (shells or max(order, default=-1) < i)  # pairwise: when met
                want = table_type(max(len(sets[j]) for j in batch)) if shells else np.int64
                assert got.dtype == want
                assert np.array_equal(got, pairwise_profiles(sets[i], n))
                order.append(i)
        assert sorted(order) == list(range(len(sets)))
        # the batches are the shell-route sets in order, each as long as the cap allows
        assert sum(batches, []) == [i for i, s in enumerate(sets)
                                    if profile_route(n, len(s)) == SHELL_ROUTE]
        widths = [[len(sets[i]) for i in batch] for batch in batches]
        for sizes, after in zip(widths, [*widths[1:], None]):
            assert len(sizes) == 1 or shell_table_bytes(n, len(sizes), max(sizes)) <= cap
            if after is not None:
                assert shell_table_bytes(n, len(sizes) + 1, max(*sizes, after[0])) > cap

    def test_a_consumer_that_drops_each_matrix_holds_one_gather(self, rng):
        # two full n = 12 spaces share one int16 table of two gathers' bytes: a gather held
        # by the kernel while the next is built would add half the table again
        n = 12
        sets = [random_states(rng, n, 1 << n) for _ in range(2)]
        gather = (n + 1) * 2 << n
        table = 2 * gather

        def consume():
            for _, got in profiles(sets, n):
                del got

        assert traced_peak(consume) <= 1.1 * (table + gather)

    def test_one_set_is_distance_profiles(self, rng):
        for n, m in ((6, 9), (10, 600)):  # one set on each route
            states = random_states(rng, n, m)
            (i, got), = profiles([states], n)
            want = distance_profiles(states, n)
            assert i == 0 and got.dtype == want.dtype and np.array_equal(got, want)


class TestProfileRoute:
    def test_dense_uniform_takes_shells(self):
        assert profile_route(14, 4096) == SHELL_ROUTE

    def test_qrfactor_takes_pairwise(self):
        assert profile_route(20, 2) == PAIRWISE_ROUTE

    def test_shells_need_more_pairs_than_adds(self):
        # n(n+1)2^n is 960 at n=5: 31^2 pairs take shells, 30^2 do not
        assert profile_route(5, 30) == PAIRWISE_ROUTE
        assert profile_route(5, 31) == SHELL_ROUTE

    def test_shell_table_capped_at_one_row_block(self):
        # full space at n=20: far fewer adds than pairs, table within the cap
        assert profile_route(20, 1 << 20) == SHELL_ROUTE
        # n=30 with 2^25 targets: adds win, but the 31 * 2^30 table is ~2x 512 rows
        assert profile_route(30, 1 << 25) == PAIRWISE_ROUTE


def traced_peak(call, *args):
    """Bytes call(*args) peaks at under tracemalloc, its inputs excluded."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    def test_shell_peak_is_table_gather_and_result(self, rng):
        # m = 2^15 holds an int32 table; the gathered table is also int32
        n, m = 16, 1 << 15
        states = random_states(rng, n, m)
        table = (n + 1) * (1 << n) * 4
        gathered = (n + 1) * m * 4
        result = (n + 1) * m * 8
        assert profile_route(n, m) == SHELL_ROUTE
        assert traced_peak(distance_profiles, states, n) <= 1.1 * (table + gathered + result)

    def test_mean_pair_reads_the_narrow_table(self, rng):
        # m = 2^15 - 1 holds an int16 table: the pair sums read its gather
        # block by block as float64, and an int64 (m, n+1) copy (4.5 MB)
        # would not fit the bound
        n, m = 16, (1 << 15) - 1
        space = random_space(rng, n, m)
        assert profile_route(n, m) == SHELL_ROUTE
        table = (n + 1) * (1 << n) * 2
        gathered = (n + 1) * m * 2
        block = _PAIR_BLOCK * (n + 1) * 8
        assert traced_peak(lambda: space.mean_pair) <= 1.1 * (table + gathered + block)

    def test_pairwise_block_sized_by_m(self, rng):
        # all 4000^2 distances take 128 MB as int64; a block of 2^19 takes 4 MB
        states = random_states(rng, 20, 4000)
        assert traced_peak(pairwise_profiles, states, 20) < 24 * 2**20


class TestApplyMixer:
    def test_preserves_norm(self, rng):
        amps = random_amps(rng, 4)
        amps /= np.linalg.norm(amps)
        apply_mixer(amps, 1.234, 4)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_beta_zero_is_identity(self, rng):
        amps = random_amps(rng, 3)
        before = amps.copy()
        apply_mixer(amps, 0.0, 3)
        assert np.array_equal(amps, before)

    def test_single_qubit_rotation(self):
        amps = np.array([1.0, 0.0], dtype=np.complex128)
        apply_mixer(amps, 0.5, 1)
        assert abs(amps[0] - math.cos(0.5)) < 1e-15
        assert abs(amps[1] - (-1j * math.sin(0.5))) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_kronecker_product(self, rng, n):
        beta = 0.37
        rotation = np.array(
            [[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]]
        )
        dense = reduce(np.kron, [rotation] * n)
        amps = random_amps(rng, n)
        want = dense @ amps
        apply_mixer(amps, beta, n)
        assert np.allclose(amps, want, atol=1e-14, rtol=0)
