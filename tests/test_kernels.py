import math
from functools import reduce

import numpy as np
import pytest

from qaoa_landscape._kernels import apply_mixer, pairwise_profiles


def random_states(rng, n, m):
    return rng.choice(1 << n, size=m, replace=False).astype(np.uint64)


def brute_force_profiles(states, n):
    values = [int(s) for s in states]
    out = np.zeros((len(values), n + 1), dtype=np.int64)
    for i, a in enumerate(values):
        for b in values:
            out[i, (a ^ b).bit_count()] += 1
    return out


def random_amps(rng, n):
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


class TestPairwiseProfiles:
    # m=600 spans two row blocks of the kernel
    @pytest.mark.parametrize("n,m", [(1, 2), (4, 7), (8, 100), (11, 600)])
    def test_matches_brute_force(self, rng, n, m):
        states = random_states(rng, n, m)
        profiles = pairwise_profiles(states, n)
        assert profiles.dtype == np.int64
        assert np.array_equal(profiles, brute_force_profiles(states, n))

    def test_rows_sum_to_m(self, rng):
        states = random_states(rng, 6, 23)
        assert np.all(pairwise_profiles(states, 6).sum(axis=1) == 23)

    def test_self_distance(self, rng):
        states = random_states(rng, 6, 23)
        profiles = pairwise_profiles(states, 6)
        assert np.all(profiles[:, 0] == 1)  # distinct states: only self at d=0


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
