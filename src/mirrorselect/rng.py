"""Deterministic, addressable random streams.

A stream is identified by a pair ``(seed, stream)``.  Derived streams are
obtained by shifting the parent stream left by 64 bits and adding a child
index, so every feature, repetition and subsystem owns an independent
substream that can be reproduced in isolation without generating anything
that precedes it.

Per-feature streams are keyed by the feature *name* (hashed to a 64-bit
child index), which ties the stream to the column identity rather than
its position: permuting columns permutes the draws with them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import _check_integer, _set_fields

_CHILD_BITS = 64
_MAX_SEED = 2**64


def name_stream(name: str) -> int:
    """Stable 64-bit child index derived from a column name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class RngSeed:
    """Addressable random stream: root entropy ``seed`` in [0, 2**64) plus
    a nonnegative stream index, each a Python or numpy integer, kept as int."""

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        _set_fields(
            self,
            seed=_check_integer(self.seed, "seed", 0, _MAX_SEED),
            stream=_check_integer(self.stream, "stream", 0),
        )

    def child(self, index: int) -> "RngSeed":
        """Substream ``index`` of this stream (index must fit in 64 bits)."""
        index = _check_integer(index, "child index", 0, 2**_CHILD_BITS)
        return RngSeed(self.seed, (self.stream << _CHILD_BITS) | index)

    def named_child(self, name: str) -> "RngSeed":
        """Substream keyed by a column name instead of a position."""
        return self.child(name_stream(name))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # SeedSequence splits the stream into little-endian uint32 words.
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(seq)
