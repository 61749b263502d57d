"""Deterministic seed derivation.

All experiment randomness flows from one 64-bit master seed through
``derive_seed``, an avalanche-style mixer (splitmix64 finalizer with
FNV-1a tag hashing). The construction is pure integer arithmetic mod 2^64,
so identical inputs give identical seeds on every platform.

A batch of K rows seeds row k with ``derive_seed(base, [("row", k)])`` and
draws it from ``np.random.default_rng`` of that seed. ``row_seeds`` and
``generators`` make those seeds and generators for a whole batch in one
vectorised pass over the rows, with the same bits.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["derive_seed", "row_seeds", "generators"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    """The splitmix64 finalizer of a Python int or, elementwise, of a uint64
    array (numpy wraps the array products mod 2^64)."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@functools.lru_cache(maxsize=256)  # a run hashes the same few tags many times
def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & _MASK
    return h


def derive_seed(master: int, labels) -> int:
    """Mix ``master`` with an ordered list of (tag, value) label pairs.

    Each pair folds the FNV-1a hash of the tag and the integer value into
    the state through the splitmix64 finalizer.
    """
    h = _splitmix64((int(master) & _MASK) ^ _GOLDEN)
    for tag, value in labels:
        h = _splitmix64(h ^ _fnv1a64(tag))
        h = _splitmix64(h ^ (int(value) & _MASK))
    return h


def row_seeds(base: int, K: int) -> np.ndarray:
    """(K,) uint64 seeds; entry k is ``derive_seed(base, [("row", k)])``."""
    h = _splitmix64(_splitmix64((int(base) & _MASK) ^ _GOLDEN) ^ _fnv1a64("row"))
    return _splitmix64(np.uint64(h) ^ np.arange(K, dtype=np.uint64))


# numpy's SeedSequence (O'Neill's seed_seq hash, pool of four uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _multipliers(init: int, mult: int, n: int) -> list:
    """``init * mult**i mod 2^32`` for i < n: the multiplier a hash holds
    before each of its steps, the same for every seed."""
    return [np.uint32(init * pow(mult, i, 1 << 32) & 0xFFFFFFFF) for i in range(n)]


_A = _multipliers(_INIT_A, _MULT_A, _POOL * _POOL + 1)  # the pool's 16 hashes
_B = _multipliers(_INIT_B, _MULT_B, 2 * _POOL + 1)  # generate_state's 8 words


def _hash(value: np.ndarray, consts: list, step: int) -> np.ndarray:
    """Step ``step`` of a hash with the multipliers ``consts``, on uint32."""
    value = (value ^ consts[step]) * consts[step + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _pcg64_words(seeds) -> np.ndarray:
    """(N, 4) uint64: row n is ``SeedSequence(seeds[n]).generate_state(4,
    np.uint64)``, the words ``np.random.PCG64`` seeds itself with.

    A seed's entropy is its little-endian uint32 words; the pool hashes a
    missing word as 0, so a seed below 2^32 gives the same pool as one with
    a zero high word, and every seed here has two.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    entropy = [(s & np.uint64(0xFFFFFFFF)).astype(np.uint32),
               (s >> np.uint64(32)).astype(np.uint32)]
    zero = np.zeros_like(entropy[0])
    pool = [_hash(entropy[i] if i < 2 else zero, _A, i) for i in range(_POOL)]
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _A, step))
                step += 1
    state = np.empty((len(s), 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        state[:, i] = _hash(pool[i % _POOL], _B, i)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence that hands ``np.random.PCG64`` precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seeds) -> list:
    """One ``np.random.Generator`` per 64-bit seed, each in the state of
    ``np.random.default_rng(seed)``."""
    return [np.random.Generator(np.random.PCG64(_Words(words)))
            for words in _pcg64_words(seeds)]
