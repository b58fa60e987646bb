"""Software LZ77 match finders for the CPU baselines (paper §2.2, §3.2.2).

Software compressors like Zstd and Deflate use large sliding windows and
pointer-heavy chained hash tables — exactly the structures the paper
notes are "inefficient for hardware".  :class:`ChainMatcher` implements
that classic head/prev chain search with lazy evaluation, parameterized
per compression level, so the CPU cost model can charge cycles to the
same work the profile in Figure 2 attributes to LZ77.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hashtable import hash_words
from repro.core.tokens import MIN_MATCH, Sequence, TokenStream
from repro.errors import CompressionError


@dataclass
class MatcherStats:
    """Search-work counters (inputs to the CPU cycle model)."""

    positions: int = 0
    hash_inserts: int = 0
    chain_steps: int = 0
    compare_bytes: int = 0
    lazy_evaluations: int = 0
    matches: int = 0
    matched_bytes: int = 0
    literals: int = 0


@dataclass
class ChainMatcherConfig:
    """Level-dependent search parameters.

    ``max_chain`` bounds chain walks per position, ``lazy`` enables
    one-position-lookahead parsing, ``nice_length`` stops the search
    early once a match is long enough.
    """

    window_log: int = 15
    hash_log: int = 15
    max_chain: int = 16
    lazy: bool = True
    nice_length: int = 128
    max_match: int = 1 << 16

    @property
    def window(self) -> int:
        return 1 << self.window_log


#: Deflate/Zstd-style level table.  Level 1 is the paper's default
#: ("Deflate and Zstd are both executed at level 1").
LEVEL_PRESETS: dict[int, ChainMatcherConfig] = {
    1: ChainMatcherConfig(window_log=15, hash_log=14, max_chain=4,
                          lazy=False, nice_length=32),
    2: ChainMatcherConfig(window_log=15, hash_log=14, max_chain=8,
                          lazy=False, nice_length=48),
    3: ChainMatcherConfig(window_log=16, hash_log=15, max_chain=16,
                          lazy=True, nice_length=64),
    5: ChainMatcherConfig(window_log=16, hash_log=16, max_chain=32,
                          lazy=True, nice_length=96),
    10: ChainMatcherConfig(window_log=17, hash_log=17, max_chain=128,
                           lazy=True, nice_length=512),
}


def config_for_level(level: int) -> ChainMatcherConfig:
    """Resolve a level to search parameters (nearest preset at or below)."""
    if level in LEVEL_PRESETS:
        return LEVEL_PRESETS[level]
    eligible = [lvl for lvl in LEVEL_PRESETS if lvl <= level]
    if not eligible:
        raise CompressionError(f"no preset at or below level {level}")
    return LEVEL_PRESETS[max(eligible)]


class ChainMatcher:
    """Head/prev chained-hash LZ77 tokenizer with optional lazy parsing."""

    def __init__(self, config: ChainMatcherConfig | None = None) -> None:
        self.config = config or ChainMatcherConfig()
        self.stats = MatcherStats()

    def tokenize(self, data: bytes) -> TokenStream:
        """Produce a token stream; each call is an independent block."""
        cfg = self.config
        max_chain = cfg.max_chain
        window = cfg.window
        nice_length = cfg.nice_length
        max_match = cfg.max_match
        n = len(data)
        # Positions below ``hashed`` start a full 4-byte word.
        hashed = n - MIN_MATCH + 1
        buckets = hash_words(data, cfg.hash_log)
        head = [-1] * (1 << cfg.hash_log)
        prev = [-1] * n
        literals = bytearray()
        sequences: list[Sequence] = []
        pos = 0
        lit_start = 0
        positions = hash_inserts = chain_steps = compare_bytes = 0
        lazy_evaluations = matches = matched_bytes = literal_count = 0

        def find(p: int) -> tuple[int, int]:
            """Best ``(length, offset)`` at ``p`` (0, 0 when none)."""
            nonlocal chain_steps, compare_bytes
            if p >= hashed:
                return 0, 0
            candidate = head[buckets[p]]
            best_len = 0
            best_off = 0
            chain = max_chain
            limit = n - p
            if limit > max_match:
                limit = max_match
            while candidate >= 0 and chain > 0 and p - candidate <= window:
                chain_steps += 1
                chain -= 1
                # Extend eight bytes at a time, then byte by byte.
                length = 0
                while (length + 8 <= limit
                       and data[candidate + length:candidate + length + 8]
                       == data[p + length:p + length + 8]):
                    length += 8
                while (length < limit
                       and data[candidate + length] == data[p + length]):
                    length += 1
                compare_bytes += length + 1
                if length > best_len:
                    best_len = length
                    best_off = p - candidate
                    if length >= nice_length:
                        break
                candidate = prev[candidate]
            if best_len < MIN_MATCH:
                return 0, 0
            return best_len, best_off

        while pos < n:
            positions += 1
            if pos >= hashed:
                pos += 1  # no word left to hash: the tail is literals
                continue
            bucket = buckets[pos]
            candidate = head[bucket]
            length = 0
            # ``find`` walks no chain when the bucket holds nothing
            # inside the window, so only call it when one does.
            if candidate >= 0 and pos - candidate <= window:
                length, offset = find(pos)
            if length == 0:
                prev[pos] = candidate
                head[bucket] = pos
                hash_inserts += 1
                pos += 1
                continue
            if cfg.lazy and pos + 1 < n:
                lazy_evaluations += 1
                bucket = buckets[pos]
                prev[pos] = head[bucket]
                head[bucket] = pos
                hash_inserts += 1
                next_length, next_offset = find(pos + 1)
                if next_length > length + 1:
                    # Defer: take the better match at pos+1.
                    pos += 1
                    length, offset = next_length, next_offset
                start = pos + 1
            else:
                start = pos
            literal_len = pos - lit_start
            literals += data[lit_start:pos]
            sequences.append(Sequence(literal_len, length, offset))
            matches += 1
            matched_bytes += length
            literal_count += literal_len
            end = pos + length
            if end > hashed:
                end = hashed
            for q in range(start, end):
                bucket = buckets[q]
                prev[q] = head[bucket]
                head[bucket] = q
            if end > start:
                hash_inserts += end - start
            pos += length
            lit_start = pos
        if lit_start < n:
            tail = n - lit_start
            literals += data[lit_start:]
            sequences.append(Sequence(tail, 0, 0))
            literal_count += tail
        self.stats = MatcherStats(
            positions=positions, hash_inserts=hash_inserts,
            chain_steps=chain_steps, compare_bytes=compare_bytes,
            lazy_evaluations=lazy_evaluations, matches=matches,
            matched_bytes=matched_bytes, literals=literal_count)
        stream = TokenStream(bytes(literals), sequences)
        stream.validate()
        return stream
