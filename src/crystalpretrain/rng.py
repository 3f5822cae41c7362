"""Deterministic random streams derived from hierarchical integer keys.

A stream is a pure function of its key tuple, so any worker layout that
derives the same keys sees the same draws.
"""

from __future__ import annotations

import zlib

import numpy as np


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

    def child(self, *subkey) -> "RngStream":
        return RngStream(*(self.key + tuple(_code(p) for p in subkey)))

    def generator(self) -> np.random.Generator:
        # every part is below 2**32, so a uint32 array gives SeedSequence the
        # entropy words the tuple would, without coercing each int in Python
        seed = np.random.SeedSequence(np.array(self.key, dtype=np.uint32))
        return np.random.Generator(np.random.PCG64(seed))

    def __repr__(self):
        return f"RngStream{self.key}"
