import numpy as np
import pytest
from hypothesis import strategies as st

from qaoa_landscape.core import TargetSpace


def random_space(rng: np.random.Generator, n: int, size: int | None = None) -> TargetSpace:
    if size is None:
        size = int(rng.integers(1, (1 << n) + 1))
    states = rng.choice(1 << n, size=size, replace=False)
    return TargetSpace.from_iterable(n, states)


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
