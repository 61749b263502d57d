"""Deterministic seed derivation.

All experiment randomness flows from one 64-bit master seed through
``derive_seed``, an avalanche-style mixer (splitmix64 finalizer with
FNV-1a tag hashing). The construction is pure integer arithmetic mod 2^64,
so identical inputs give identical seeds on every platform.
"""

from __future__ import annotations

import functools

__all__ = ["derive_seed"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK
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
