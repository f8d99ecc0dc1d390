"""Spawned random substreams for reproducible parallel simulation.

Chunk `index` of the run seeded by `master_seed` draws from PCG64 seeded by
`SeedSequence(master_seed, spawn_key=(index,))`, the stream numpy's own
`SeedSequence.spawn` would hand that child.  A chunk's draws depend only on
(master_seed, index), so any partition of work into indexed chunks yields
the same draws regardless of scheduling or worker count.

The seed words are not hashed one chunk at a time: `_seed_batch` computes
the PCG64 seed words of 256 consecutive chunks at once.  The entropy pool
after the seed's own words is the same for every chunk, and numpy's
`SeedSequence` mixes it once.  The spawn-key words' share of the mix and
`generate_state(4, uint64)` run as uint32 array arithmetic, one row per
chunk.  Their hash constants depend only on a call's position in the
mix, not on the data, so they are tabulated.  A small cache keeps recent
batches, and each chunk's PCG64 is seeded by numpy's own code from its
precomputed row, handed over as the `ISeedSequence` that PCG64 asks for.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

_MASK32 = 0xFFFFFFFF

# `SeedSequence`'s pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# array operands as uint32 scalars: numpy converts a Python int per call
_SHIFT, _MIX_R, _MIX_L = (np.uint32(c) for c in (16, _MIX_MULT_R, _MIX_MULT_L))

#: Chunks whose seed words are hashed at once.  It divides 2^32, so every
#: index of a batch has a spawn key of the same word count.
_BATCH = 256

#: Batches the cache keeps, 8 KB each.
_CACHED_BATCHES = 16


def _powers(init: int, mult: int, count: int) -> tuple[int, ...]:
    """init * mult^k mod 2^32 for k < count, as Python ints."""
    return tuple(init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count))


def _table(values: tuple[int, ...]) -> np.ndarray:
    """Read-only _BATCH x 8 uint32 table whose every row is `values`: one row
    per index of a batch, one column per word of its PCG64 state."""
    table = np.tile(np.array(values, dtype=np.uint32), (_BATCH, 1))
    table.flags.writeable = False
    return table


@functools.cache
def _hash_constants(calls: int) -> tuple[int, ...]:
    """Running constant of an entropy mix of `calls` hashmix calls: call k
    XORs with entry k and multiplies by entry k + 1.  An entropy of L words,
    L >= 4, takes 4 L calls."""
    return _powers(_INIT_A, _MULT_A, calls + 1)


@functools.cache
def _low_word_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR and multiplier tables of hashmix calls k .. k + 3, which mix the
    low spawn-key word of each index of a batch into pool words 0 .. 3.
    Column j works on pool word j % 4, as generate_state reads the pool.
    The batch's first low word is a multiple of 256, so index i's is that
    word XOR i, and i is folded into row i of the XOR table."""
    a = _hash_constants(k + _POOL)[k:]
    xor = _table(a[:-1] * 2) ^ np.arange(_BATCH, dtype=np.uint32)[:, None]
    xor.flags.writeable = False
    return xor, _table(a[1:] * 2)


# generate_state word j reads pool word j % 4, XORs with _STATE_XOR[:, j] and
# multiplies by _STATE_MULT[:, j]: 8 uint32 words make the 4 uint64 that
# PCG64 asks for
_STATE_CONSTS = _powers(_INIT_B, _MULT_B, 2 * _POOL + 1)
_STATE_XOR = _table(_STATE_CONSTS[:-1])
_STATE_MULT = _table(_STATE_CONSTS[1:])


def _is_index(value, low: int) -> bool:
    """Whether `value` is an integer (a float or a bool never is) of at least `low`."""
    if isinstance(value, bool):
        return False
    try:
        return operator.index(value) >= low
    except TypeError:
        return False


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int, [0] for 0, as
    `SeedSequence` splits an entropy or spawn-key integer."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value: int, consts: tuple[int, ...], k: int) -> int:
    """`SeedSequence`'s hashmix as call k of an entropy mix."""
    value = (value ^ consts[k]) * consts[k + 1] & _MASK32
    return value ^ value >> 16


def _shift_xor(words: np.ndarray, scratch: np.ndarray) -> None:
    """words ^= words >> 16 in place, the last step of hashmix and mix."""
    np.right_shift(words, _SHIFT, out=scratch)
    words ^= scratch


@functools.lru_cache(maxsize=_CACHED_BATCHES)
def _seed_batch(master_seed: int, batch: int) -> np.ndarray:
    """Read-only _BATCH x 4 uint64 array: row i holds
    `SeedSequence(master_seed, spawn_key=(batch * _BATCH + i,)).generate_state(4, np.uint64)`."""
    run = _words(master_seed)
    run += [0] * (_POOL - len(run))  # a spawn key pads the run entropy to the pool
    # each index's spawn key: its low word, then the words above it, which
    # the whole batch shares
    first = batch * _BATCH
    high = _words(first >> 32) if first >> 32 else []

    # the pool after the run entropy, alike for every index: with no spawn
    # key and at least _POOL words, `SeedSequence` mixes exactly that
    pool = np.random.SeedSequence(np.array(run, dtype=np.uint32)).pool.tolist()
    k = _POOL * len(run)

    # the spawn key, in a uint32 array of one row per index and one column
    # per state word: the pool twice over, as generate_state reads it.
    # hashmix each index's low word, then mix(pool, hashed) = L pool - R hashed
    xor, mult = _low_word_tables(k)
    state = np.bitwise_xor(xor, np.uint32(first & _MASK32))
    scratch = np.empty_like(state)
    state *= mult
    _shift_xor(state, scratch)
    state *= _MIX_R
    pool_l = np.array([_MIX_MULT_L * word & _MASK32 for word in pool] * 2, dtype=np.uint32)
    np.subtract(pool_l, state, out=state)
    _shift_xor(state, scratch)
    k += _POOL
    consts = _hash_constants(_POOL * (len(run) + 1 + len(high)))
    for word in high:  # alike for every index: hashed as Python ints
        state *= _MIX_L
        state -= np.array([_MIX_MULT_R * _hashmix(word, consts, k + i) & _MASK32
                           for i in range(_POOL)] * 2, dtype=np.uint32)
        _shift_xor(state, scratch)
        k += _POOL

    # generate_state(4, uint64): each row's 8 words as little-endian uint64 pairs
    state ^= _STATE_XOR
    state *= _STATE_MULT
    _shift_xor(state, scratch)
    rows = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    rows.flags.writeable = False
    return rows


class _SeedWords(ISeedSequence):
    """One chunk's precomputed PCG64 seed words, in place of its `SeedSequence`."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
        return self._words


def substream(master_seed: int, index: int) -> Generator:
    """Independent generator for chunk `index` of the run seeded by `master_seed`."""
    if not (_is_index(master_seed, 0) and _is_index(index, 0)):
        raise DomainError("master_seed and index must be nonnegative integers")
    batch, row = divmod(operator.index(index), _BATCH)
    return Generator(PCG64(_SeedWords(_seed_batch(operator.index(master_seed), batch)[row])))
