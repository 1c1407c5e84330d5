import numpy as np
import pytest
from hypothesis import strategies as st

from qaoa_landscape import experiments
from qaoa_landscape.analytic import MODES, UniformModel, summary_analytic
from qaoa_landscape.core import TargetSpace
from qaoa_landscape.landscape import z_f1
from qaoa_landscape.problems import build_ensemble
from qaoa_landscape.structure import aggregate

# one small ensemble per family: (family, n, params)
FAMILY_CASES = [
    ("uniform", 8, {"t_size": 40}),
    ("uniform", 14, {"t_size": 4096}),
    ("clustered", 8, {}),
    ("sat", 8, {"num_clauses": 20}),
    ("kclique", 10, {}),
    ("qrfactor", 12, {}),
]
# analytic summaries (n, |T|), down to the smallest widths and up to the width limit
ANALYTIC_CASES = [(1, 1), (1, 2), (2, 1), (2, 3), (32, 1 << 31)]


# instance ids at the 32-bit word boundaries, past int64 and past 64 bits, and a
# seed of three words: the keys that any faster seeding must keep stream for stream
BOUNDARY_IDS = [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]
BOUNDARY_SEED = 2**70 + 3


def numpy_stream(seed: int, key: tuple) -> np.random.Generator:
    """numpy's own stream of one spawn key: the oracle of core.streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def patch_last_shared_f1(monkeypatch, last: float) -> None:
    """run_success_comparison's shared F1 row as z_f1 gives it, but for its last entry."""
    def patched(scale, z, gamma):
        probs = z_f1(scale, z, gamma)
        probs[-1] = last
        return probs

    monkeypatch.setattr(experiments, "z_f1", patched)


def random_space(rng: np.random.Generator, n: int, size: int | None = None) -> TargetSpace:
    if size is None:
        size = int(rng.integers(1, (1 << n) + 1))
    states = rng.choice(1 << n, size=size, replace=False)
    return TargetSpace.from_iterable(n, states)


def family_sources(family, n, params) -> list:
    """The target spaces of a six-instance ensemble of one family, then its summary."""
    spaces = [inst.target for inst in build_ensemble(family, n, 6, params, seed=1).instances]
    return [*spaces, aggregate(spaces)]


def analytic_summaries(n, t) -> list:
    """The analytic summaries of width n and size t, in every mode."""
    return [summary_analytic(UniformModel(n, t, mode)) for mode in MODES]


@st.composite
def oracle_spaces(draw, n=None):
    """Target spaces with n <= 10: one target, the full space, or a random set."""
    if n is None:
        n = draw(st.integers(1, 10))
    size = draw(st.sampled_from([1, 1 << n, None]))
    if size is None:
        size = draw(st.integers(1, 1 << n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TargetSpace.from_iterable(n, rng.choice(1 << n, size=size, replace=False))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
