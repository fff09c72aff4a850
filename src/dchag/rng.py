"""Deterministic random streams.

All randomness flows through RngState, which wraps a counter-based Philox
generator.  The same seed plus the same call sequence yields bit-identical
values on every platform, and `child()` gives domain-separated substreams
so parameter init, data synthesis, and masking never interleave.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_seed(seed: int, keys: tuple) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for k in keys:
        h.update(b"/")
        h.update(str(k).encode())
    return int.from_bytes(h.digest(), "little")


class RngState:
    """Seeded Philox stream.  To replay a stream, rebuild it from the same
    seed (or the same parent and `child` keys)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, *keys) -> "RngState":
        """Independent substream derived from (seed, *keys)."""
        return RngState(_derive_seed(self.seed, keys))

    def normal(self, shape, std=1.0) -> np.ndarray:
        return self._gen.standard_normal(shape) * std

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def truncated_normal(self, shape, std=0.02) -> np.ndarray:
        """Normal(0, std) with draws outside two sigma rejected and redrawn."""
        out = self._gen.standard_normal(shape)
        bad = np.abs(out) > 2.0
        while bad.any():
            out[bad] = self._gen.standard_normal(int(bad.sum()))
            bad = np.abs(out) > 2.0
        return out * std

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, shape)
