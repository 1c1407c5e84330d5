"""The per-reference oracle of the profile kernels.

``distance_profile`` counts the targets at each distance from one reference
state by a bincount of XOR popcounts: it shares nothing with
``_kernels.pairwise_profiles`` or the shell tables.
"""

from __future__ import annotations

import numpy as np

from qaoa_landscape.core import TargetSpace, UsageError


def distance_profile(space: TargetSpace, k: int) -> np.ndarray:
    """Counts of targets at each Hamming distance 0..n from reference state k.

    k need not belong to the space (then counts[0] == 0), but it must fit
    n bits.  The per-reference oracle of ``_kernels.distance_profiles``.
    """
    k = int(k) if isinstance(k, np.integer) else k  # a member of space.states; XOR needs the int
    if type(k) is not int or not 0 <= k < 1 << space.n:
        raise UsageError(f"reference {k!r} does not fit {space.n} bits")
    return np.bincount(np.bitwise_count(space.states ^ k), minlength=space.n + 1)
