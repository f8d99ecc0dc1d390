"""Spawned random substreams for reproducible parallel simulation.

Block `index` of the run seeded by `master_seed` draws from PCG64 seeded by
`SeedSequence(master_seed, spawn_key=(index,))`, the stream numpy's own
`SeedSequence.spawn` would hand that child.  A block's draws depend only on
(master_seed, index), so any partition of work into indexed blocks yields
the same draws regardless of scheduling or worker count.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError


def _is_index(value, low: int) -> bool:
    """Whether `value` is an integer (a float or a bool never is) of at least `low`."""
    if isinstance(value, bool):
        return False
    try:
        return operator.index(value) >= low
    except TypeError:
        return False


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for block `index` of the run seeded by `master_seed`."""
    if not (_is_index(master_seed, 0) and _is_index(index, 0)):
        raise DomainError("master_seed and index must be nonnegative integers")
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))
