"""SRAM-optimized bounded hash table (paper §3.2.3).

DPZip's LZ77 keeps a *small, bounded* hash table in on-chip SRAM: each
bucket holds only a few candidate positions and entries are stored in a
circular FIFO, so older entries are evicted naturally without any list
management.  This module models that structure exactly, including the
two hardware-friendly hash functions (``hash0``/``hash1``) the paper
describes, and counts probe/insert operations for the cycle model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

#: Knuth multiplicative constant; cheap in hardware (shift/add network).
_GOLDEN32 = 2654435761


def hash_word(word: int, bits: int) -> int:
    """Multiplicative hash of a 32-bit little-endian word to ``bits`` bits."""
    return ((word * _GOLDEN32) & 0xFFFFFFFF) >> (32 - bits)


def hash_words(data: bytes, bits: int) -> list[int]:
    """:func:`hash_word` of the 4-byte word at every position that has one."""
    positions = len(data) - 3
    hashes = [0] * max(positions, 0)
    shift = 32 - bits
    # Positions k, k+4, k+8, ... hold consecutive aligned words.
    for k in range(min(4, max(positions, 0))):
        count = (positions - k + 3) // 4
        words = struct.unpack(f"<{count}I", data[k:k + 4 * count])
        hashes[k::4] = [((word * _GOLDEN32) & 0xFFFFFFFF) >> shift
                        for word in words]
    return hashes


def hash_pair(word: int, bits: int) -> tuple[int, int]:
    """Two independent hardware-friendly hashes of the same 4-byte word.

    The paper computes "two 1-byte hash values" per 4-byte word for the
    two-level candidate check; we generalise the width to ``bits``.
    """
    h0 = hash_word(word, bits)
    # Second hash taps different product bits so the two indexes decorrelate.
    h1 = (((word * _GOLDEN32) & 0xFFFFFFFF) >> (28 - bits)) & ((1 << bits) - 1)
    return h0, h1


@dataclass
class HashTableStats:
    """Operation counters consumed by the DPZip cycle model."""

    probes: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.probes = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0


@dataclass
class BoundedHashTable:
    """Fixed-size, multi-slot hash table with circular-FIFO buckets.

    Parameters
    ----------
    index_bits:
        log2 of the bucket count.  DPZip's table is tiny (the default
        models a 4K-bucket table that fits in a few KB of SRAM).
    ways:
        Candidate positions retained per bucket.
    """

    index_bits: int = 12
    ways: int = 4
    stats: HashTableStats = field(default_factory=HashTableStats)

    def __post_init__(self) -> None:
        self._clear_slots()

    def _clear_slots(self) -> None:
        # Each bucket lists its positions newest first; inserting into a
        # full bucket drops the oldest, the circular FIFO's eviction.
        self._slots: list[list[int]] = [
            [] for _ in range(1 << self.index_bits)]

    @property
    def bucket_count(self) -> int:
        return 1 << self.index_bits

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint: 4-byte position per slot (area model input)."""
        return self.bucket_count * self.ways * 4

    def reset(self) -> None:
        """Clear all buckets (a new independent block starts)."""
        self._clear_slots()
        self.stats.reset()

    def candidates(self, bucket: int) -> list[int]:
        """Return stored positions for ``bucket``, newest first."""
        self.stats.probes += 1
        found = self._slots[bucket][:]
        if found:
            self.stats.hits += 1
        return found

    def insert(self, bucket: int, position: int) -> None:
        """Insert ``position``; the oldest slot is overwritten (FIFO)."""
        slots = self._slots[bucket]
        if len(slots) == self.ways:
            slots.pop()
            self.stats.evictions += 1
        slots.insert(0, position)
        self.stats.inserts += 1
