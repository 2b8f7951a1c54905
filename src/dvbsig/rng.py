"""Randomness sources.

Everything that needs randomness takes an explicit rng handle exposing
next_bytes(n).  SeededRng expands a seed through SHA-256 in counter mode
(block i = SHA-256(seed || i)), so any seeded run is exactly replayable;
SystemRng wraps the OS entropy pool for real use.
"""

from __future__ import annotations

import hashlib
import os


class SeededRng:
    """Deterministic byte stream: SHA-256(seed || counter) blocks."""

    def __init__(self, seed: bytes | str):
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._seed = seed
        self._counter = 0
        self._buffer = b""

    def next_bytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


class SystemRng:
    """OS entropy; not replayable."""

    def next_bytes(self, n: int) -> bytes:
        return os.urandom(n)
