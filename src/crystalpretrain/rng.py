"""Deterministic random streams derived from hierarchical integer keys.

A stream is a pure function of its key tuple, so any worker layout that
derives the same keys sees the same draws. generators is the one entry that
seeds streams; RngStream.generator is its one-row case.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _code(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


class RngStream:
    """Immutable handle for a derived random stream."""

    __slots__ = ("key",)

    def __init__(self, *key):
        self.key = tuple(_code(p) for p in key)

    def generator(self) -> np.random.Generator:
        return generators([self.key])[0]

    def __repr__(self):
        return f"RngStream{self.key}"


# numpy.random.SeedSequence's constants: the entropy words are hashed into a
# pool of four uint32 words, which is hashed out again into the state
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over a column of uint32 words: its running
    constant starts at const and is multiplied by mult at every call,
    modulo 2**32, as in numpy's C code."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def seed_states(keys) -> np.ndarray:
    """np.random.SeedSequence(key).generate_state(4, np.uint64) for each row
    of keys, an (n, L) array of RngStream key codes: SeedSequence's mixing
    run on whole columns of uint32, which wrap as its C arithmetic does."""
    keys = np.asarray(keys, dtype=np.uint32)
    length = keys.shape[1]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * hashmix(y)
        return out ^ (out >> 16)

    zero = np.zeros(len(keys), dtype=np.uint32)
    pool = [hashmix(keys[:, i] if i < length else zero) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], pool[i_src])
    for i_src in range(_POOL, length):
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], keys[:, i_src])
    hashout = _hasher(_INIT_B, _MULT_B)
    words = np.column_stack([hashout(pool[i % _POOL]) for i in range(2 * _POOL)])
    # two little-endian words make a uint64, as generate_state joins them
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _State(ISeedSequence):
    """One stream's seed_states row, handed to PCG64 as its SeedSequence's
    generate_state(4, np.uint64) would hand it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream state holds {len(self.words)} uint64 words")
        return self.words


# below this many rows SeedSequence's own C hashing, one key at a time, beats
# the fixed cost of seed_states' two hundred or so whole-column operations
_PER_KEY_MAX = 32


def generators(keys) -> list[np.random.Generator]:
    """A generator for each row of keys, (n, L) RngStream key codes, seeded
    as np.random.SeedSequence(key) seeds it: one at a time below
    _PER_KEY_MAX rows, else in one pass (seed_states), from which PCG64
    still seeds itself. Every code is below 2**32, so a uint32 row gives
    SeedSequence the entropy words the key's tuple would."""
    keys = np.asarray(keys, dtype=np.uint32)
    if len(keys) < _PER_KEY_MAX:
        return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
                for key in keys]
    return [np.random.Generator(np.random.PCG64(_State(words)))
            for words in seed_states(keys)]
