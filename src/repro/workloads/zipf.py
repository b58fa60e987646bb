"""Zipfian key-popularity generators (YCSB's request distribution).

Implements the standard YCSB ``ZipfianGenerator`` (Gray et al.'s
rejection-free inverse method with cached zeta) plus the scrambled
variant that decorrelates popularity from key order.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.errors import WorkloadError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 little-endian bytes."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & _MASK64
        value >>= 8
    return h


class ZipfianGenerator:
    """Zipf-distributed integers in ``[0, item_count)``.

    theta defaults to YCSB's 0.99.  zeta(n) is memoized per
    ``(item count, theta)`` (the 128 most recent pairs) and shared by
    every generator: closed-loop store clients build one per
    connection.
    """

    def __init__(self, item_count: int, theta: float = 0.99,
                 seed: int | str = 0) -> None:
        if item_count < 1:
            raise WorkloadError(f"item_count must be >= 1, got {item_count}")
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"theta {theta} outside (0, 1)")
        self.item_count = item_count
        self.theta = theta
        self._rng = random.Random(seed)
        self._zeta = self._compute_zeta(item_count, theta)
        self._zeta2 = self._compute_zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # For item_count <= 2 zeta(n) == zeta(2), making eta 0/0; the
        # eta branch of next() is unreachable there (the first two
        # cutoffs cover the whole unit interval), so any value works.
        denominator = 1.0 - self._zeta2 / self._zeta
        if denominator == 0.0:
            self._eta = 0.0
        else:
            self._eta = ((1.0 - (2.0 / item_count) ** (1.0 - theta))
                         / denominator)

    @staticmethod
    @lru_cache(maxsize=128)
    def _compute_zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zeta
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count
                   * (self._eta * u - self._eta + 1.0) ** self._alpha)


class ScrambledZipfian:
    """Zipfian popularity spread uniformly over the key space."""

    def __init__(self, item_count: int, theta: float = 0.99,
                 seed: int | str = 0) -> None:
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, theta, seed)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.item_count


class UniformGenerator:
    """Uniform keys (YCSB's insert-order / uniform distributions)."""

    def __init__(self, item_count: int, seed: int | str = 0) -> None:
        if item_count < 1:
            raise WorkloadError(f"item_count must be >= 1, got {item_count}")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.item_count)
