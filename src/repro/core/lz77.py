"""DPZip's hardware LZ77 encoder and decoder (paper §3.2).

Encoder (§3.2.3):

* the input is processed in **groups of four consecutive positions**
  (the pipeline's parallel slots);
* each position computes two hardware-friendly hashes into a *bounded,
  multi-slot FIFO* hash table (:mod:`repro.core.hashtable`);
* matching is **two-level** — a fast 4-byte candidate compare, then a
  byte-wise extension that determines the exact length;
* matching is **first-fit / partial-lazy** — the first confirmed match
  is accepted without backtracking, and the cursor *skips ahead a full
  group* when no position in the group matches.  This is the mechanism
  behind the paper's Finding 5: throughput stays within ~15% on
  incompressible data because unrewarded match attempts cost one group
  probe per four bytes.

Decoder (§3.2.4):

* dual-buffer design (literal buffer + history buffer);
* a 256-byte register-backed recent-data window serves short-offset
  (overlapping) copies without SRAM latency;
* literal and match pipelines are modelled through the stats the
  decoder gathers (consumed by :mod:`repro.hw.dpzip`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.hashtable import BoundedHashTable, hash_pair
from repro.core.tokens import MIN_MATCH, Sequence, TokenStream, copy_match
from repro.errors import CompressionError, DecompressionError

#: Register-backed recent-data buffer size in the decoder (paper §3.2.4).
RECENT_BUFFER_BYTES = 256

#: DPZip operates on SSD pages; the history window is one 4 KB page.
DPZIP_PAGE_BYTES = 4096


@dataclass
class EncoderStats:
    """Work counters for the encode pipeline (cycle-model inputs)."""

    groups: int = 0
    positions_probed: int = 0
    candidate_compares: int = 0
    extension_bytes: int = 0
    literals: int = 0
    sequences: int = 0
    matched_bytes: int = 0
    skipped_groups: int = 0

    def merge(self, other: "EncoderStats") -> None:
        self.groups += other.groups
        self.positions_probed += other.positions_probed
        self.candidate_compares += other.candidate_compares
        self.extension_bytes += other.extension_bytes
        self.literals += other.literals
        self.sequences += other.sequences
        self.matched_bytes += other.matched_bytes
        self.skipped_groups += other.skipped_groups


@dataclass
class DecoderStats:
    """Work counters for the decode pipeline."""

    literal_bytes: int = 0
    match_bytes: int = 0
    sequences: int = 0
    short_offset_matches: int = 0  # served by the register buffer
    overlap_copies: int = 0
    history_reads: int = 0


@dataclass
class DpzipLz77Encoder:
    """Hardware-modelled LZ77 encoder.

    Parameters mirror the silicon constraints: a compact hash table
    (``index_bits``/``ways``) and a bounded history ``window``.
    """

    index_bits: int = 12
    ways: int = 4
    group_size: int = 4
    window: int = DPZIP_PAGE_BYTES
    stats: EncoderStats = field(default_factory=EncoderStats)

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise CompressionError("group_size must be >= 1")
        self._table = BoundedHashTable(self.index_bits, self.ways)

    @property
    def table(self) -> BoundedHashTable:
        return self._table

    def encode(self, data: bytes) -> TokenStream:
        """Tokenize ``data``; each call is an independent block."""
        table = self._table
        table.reset()
        insert = table.insert
        index_bits = self.index_bits
        group_size = self.group_size
        stats = EncoderStats()
        n = len(data)
        literals = bytearray()
        sequences: list[Sequence] = []
        pos = 0
        lit_start = 0
        probe_limit = n - MIN_MATCH + 1
        while pos < probe_limit:
            group_end = min(pos + group_size, probe_limit)
            stats.groups += 1
            found: tuple[int, int, int] | None = None  # (pos, offset, length)
            for p in range(pos, group_end):
                stats.positions_probed += 1
                word = data[p:p + 4]
                h0, h1 = hash_pair(int.from_bytes(word, "little"), index_bits)
                match = self._probe(data, p, word, h0, h1, stats)
                insert(h0, p)
                if h1 != h0:
                    insert(h1, p)
                if match is not None:
                    found = (p, match[0], match[1])
                    break  # first-fit: accept without backtracking
            if found is None:
                stats.skipped_groups += 1
                pos = group_end
                continue
            match_pos, offset, length = found
            literal_len = match_pos - lit_start
            literals += data[lit_start:match_pos]
            sequences.append(Sequence(literal_len, length, offset))
            stats.literals += literal_len
            stats.sequences += 1
            stats.matched_bytes += length
            # Incremental dictionary update: insert covered positions on a
            # 4-byte stride ("either per iteration or every 4 bytes").
            for q in range(match_pos + 4, min(match_pos + length, n - 4), 4):
                h0, _ = hash_pair(int.from_bytes(data[q:q + 4], "little"),
                                  index_bits)
                insert(h0, q)
            pos = match_pos + length
            lit_start = pos
        # Trailing literals flush through a terminal match-less sequence.
        if lit_start < n:
            tail = n - lit_start
            literals += data[lit_start:]
            sequences.append(Sequence(tail, 0, 0))
            stats.literals += tail
        self.stats.merge(stats)
        stream = TokenStream(bytes(literals), sequences)
        stream.validate()
        return stream

    def _probe(
        self,
        data: bytes,
        p: int,
        word: bytes,
        h0: int,
        h1: int,
        stats: EncoderStats,
    ) -> tuple[int, int] | None:
        """Two-level match check of ``word`` (the 4 bytes at ``p``).

        Returns ``(offset, length)`` or None.
        """
        candidates = self._table.candidates
        oldest = p - self.window
        for bucket in (h0, h1):
            for candidate in candidates(bucket):
                if candidate >= p or candidate < oldest:
                    continue
                stats.candidate_compares += 1
                if data[candidate:candidate + 4] != word:
                    continue  # hash collision rejected by the fast check
                length = self._extend(data, candidate, p, stats)
                return (p - candidate, length)
        return None

    @staticmethod
    def _extend(data: bytes, candidate: int, p: int,
                stats: EncoderStats) -> int:
        """History match beyond the verified 4-byte prefix.

        Compares eight bytes at a time, then byte by byte.
        """
        limit = len(data) - p
        length = 4
        while (length + 8 <= limit
               and data[candidate + length:candidate + length + 8]
               == data[p + length:p + length + 8]):
            length += 8
        while length < limit and data[candidate + length] == data[p + length]:
            length += 1
        stats.extension_bytes += length - 4
        return length


@dataclass
class DpzipLz77Decoder:
    """Hardware-modelled LZ77 decoder with dual-pipeline accounting."""

    stats: DecoderStats = field(default_factory=DecoderStats)

    def decode(self, stream: TokenStream) -> bytes:
        """Reconstruct the original block from a token stream."""
        out = bytearray()
        lit_pos = 0
        literals = stream.literals
        for seq in stream.sequences:
            self.stats.sequences += 1
            lit_end = lit_pos + seq.literal_length
            if lit_end > len(literals):
                raise DecompressionError("literal buffer overrun")
            out += literals[lit_pos:lit_end]
            self.stats.literal_bytes += seq.literal_length
            lit_pos = lit_end
            if seq.match_length == 0:
                continue
            src = len(out) - seq.offset
            if src < 0:
                raise DecompressionError(
                    f"offset {seq.offset} reaches before output start"
                )
            if seq.offset <= RECENT_BUFFER_BYTES:
                self.stats.short_offset_matches += 1
            else:
                self.stats.history_reads += 1
            if seq.offset < seq.match_length:
                # Overlapping copy: byte-at-a-time replication semantics.
                self.stats.overlap_copies += 1
            copy_match(out, seq.offset, seq.match_length)
            self.stats.match_bytes += seq.match_length
        if lit_pos != len(literals):
            raise DecompressionError("unconsumed literals after final sequence")
        return bytes(out)
