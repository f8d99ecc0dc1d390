"""Counter-based random substreams for reproducible parallel simulation.

Each (master_seed, index) pair keys an independent Philox stream, so any
partition of work into indexed blocks yields the same draws regardless of
scheduling or worker count.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1


def _is_index(value, low: int) -> bool:
    """Whether `value` is an integer (a float never is) of at least `low`."""
    try:
        return operator.index(value) >= low
    except TypeError:
        return False


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for block `index` of the run keyed by `master_seed`."""
    if not (_is_index(master_seed, 0) and _is_index(index, 0)):
        raise DomainError("master_seed and index must be nonnegative integers")
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
