"""Canonical Huffman coding with DPZip's hardware canonizer (paper §3.3).

DPZip bounds Huffman code lengths to 11 bits and replaces the software
"cost-repayment" loop of Zstd with a three-stage, latency-stable
procedure:

1. **Leaf Scan & Cap** — a single pass clips leaves deeper than the
   ceiling and tallies the leaf count ``N`` and the Kraft *deficit* ``k``
   the clipping introduced.
2. **Deterministic Redistribution** — a compact FSM walks levels
   ``max-1 -> 1``, demoting just enough leaves per level (shift/increment
   arithmetic only) to absorb ``k``.
3. **Logarithmic Hole Repair** — any residual hole is filled by
   promotions whose granted slots halve each iteration, terminating in
   at most ``ceil(log2(k)) <= 8`` iterations for a 256-symbol alphabet.

The worst-case cycle schedule is ``256 (scan) + 10 (redistribute) +
8 (repair) = 274`` cycles, which :class:`CanonizerReport` tracks so the
hardware model (:mod:`repro.hw.dpzip`) can charge tree-build latency.

Codes are canonical (RFC 1951 ordering), so the serialized table is just
the code-length vector, nibble-packed with zero-run compression.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.bitio import BitReader, BitWriter
from repro.errors import CompressionError, DecompressionError

#: DPZip's hardware ceiling on code lengths (paper §3.1/§3.3).
DPZIP_MAX_BITS = 11

# Nibble-stream opcodes used by the serialized length table.
_NIB_ZRUN_SHORT = 12  # next nibble encodes a zero run of 3..18
_NIB_ZRUN_LONG = 13   # next byte (two nibbles) encodes a run of 19..274
_ZRUN_SHORT_MIN = 3
_ZRUN_LONG_MIN = 19


@dataclass
class CanonizerReport:
    """Cycle-level account of one canonization run (paper's T_max model)."""

    leaf_count: int = 0
    capped_leaves: int = 0
    deficit: int = 0
    redistribution_levels: int = 0
    repair_iterations: int = 0

    @property
    def cycles(self) -> int:
        """Modelled cycles: scan(256) + per-level FSM + repair iterations."""
        return 256 + self.redistribution_levels + self.repair_iterations


@dataclass
class HuffmanTable:
    """Canonical Huffman code table.

    ``lengths[symbol]`` is zero for absent symbols.
    ``reversed_codes[symbol]`` is ``(code, length)`` with the canonical
    MSB-first code bit-reversed, as the LSB-first bitstream carries it
    so it decodes MSB-first (the DEFLATE convention); fixed when the
    table is built.
    """

    lengths: list[int]
    max_bits: int = DPZIP_MAX_BITS
    report: CanonizerReport = field(default_factory=CanonizerReport)

    def __post_init__(self) -> None:
        self._build_codes()

    def _build_codes(self) -> None:
        lengths = self.lengths
        counts = [0] * (self.max_bits + 1)
        for length in lengths:
            if length > self.max_bits:
                raise CompressionError(
                    f"length {length} exceeds ceiling {self.max_bits}"
                )
            if length:
                counts[length] += 1
        kraft = sum(counts[length] << (self.max_bits - length)
                    for length in range(1, self.max_bits + 1))
        if kraft > (1 << self.max_bits):
            raise CompressionError("length vector violates Kraft inequality")
        # RFC 1951 canonical code assignment.
        next_code = [0] * (self.max_bits + 2)
        code = 0
        for length in range(1, self.max_bits + 1):
            code = (code + counts[length - 1]) << 1
            next_code[length] = code
        reversed_codes: list[tuple[int, int]] = [(0, 0)] * len(lengths)
        for symbol, length in enumerate(lengths):
            if length:
                reversed_codes[symbol] = (
                    _reverse_bits(next_code[length], length), length)
                next_code[length] += 1
        self.reversed_codes = reversed_codes
        # Peek-width decode table, built on the first decode.
        self._lookup: list[int] | None = None
        self._lookup_bits = max(lengths, default=0)
        self._counts = counts
        # Canonical decode metadata: first code value and first symbol
        # index per length, over symbols sorted by (length, symbol).
        first_code = [0] * (self.max_bits + 1)
        first_index = [0] * (self.max_bits + 1)
        # A stable sort by length keeps equal lengths in symbol order.
        ordered = sorted((sym for sym, slen in enumerate(lengths) if slen),
                         key=lengths.__getitem__)
        code = 0
        index = 0
        for length in range(1, self.max_bits + 1):
            code = (code + counts[length - 1]) << 1
            first_code[length] = code
            first_index[length] = index
            index += counts[length]
        self._first_code = first_code
        self._first_index = first_index
        self._ordered_symbols = ordered

    @property
    def symbol_count(self) -> int:
        return sum(1 for length in self.lengths if length)

    def encode_symbol(self, symbol: int, writer: BitWriter) -> int:
        """Write one symbol; returns the number of bits emitted."""
        code, length = self.reversed_codes[symbol]
        if length == 0:
            raise CompressionError(f"symbol {symbol} has no code")
        writer.write(code, length)
        return length

    def decode_symbol(self, reader: BitReader) -> int:
        """Read one canonical code MSB-first and return its symbol.

        A lookup table indexed by the next ``width`` stream bits (the
        longest code length) resolves a symbol in one step.  With fewer
        bits left in the stream, or on bits that start no code, the
        bit-serial canonical walk decodes instead, so the result and
        every error are exactly the walk's.
        """
        symbol = reader.read_prefix(*self.decoder())
        if symbol >= 0:
            return symbol
        return self._decode_serial(reader)

    def decoder(self) -> tuple[list[int], int]:
        """``(lookup, width)`` for :meth:`BitReader.read_prefix`.

        Built on first use: entry ``symbol << 4 | length`` at every
        ``width``-bit index whose low bits carry that symbol's code.
        Hot loops call ``read_prefix`` directly and fall back to
        :meth:`decode_symbol` when it returns -1.
        """
        width = self._lookup_bits
        lookup = self._lookup
        if lookup is None:
            lookup = [0] * (1 << width)
            for symbol, (code, length) in enumerate(self.reversed_codes):
                if length:
                    lookup[code::1 << length] = (
                        [symbol << 4 | length] * (1 << (width - length)))
            self._lookup = lookup
        return lookup, width

    def _decode_serial(self, reader: BitReader) -> int:
        code = 0
        for length in range(1, self.max_bits + 1):
            code = (code << 1) | reader.read(1)
            index = code - self._first_code[length]
            if 0 <= index < self._counts[length]:
                return self._ordered_symbols[self._first_index[length] + index]
        raise DecompressionError("invalid Huffman code in stream")

    def encoded_bit_length(self, freqs: list[int]) -> int:
        """Exact payload bits this table needs for the given histogram."""
        return sum(freqs[s] * self.lengths[s]
                   for s in range(min(len(freqs), len(self.lengths))))


def _reverse_bits(value: int, nbits: int) -> int:
    result = 0
    for _ in range(nbits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def build_code_lengths(freqs: list[int]) -> list[int]:
    """Unbounded Huffman code lengths from a frequency histogram."""
    live = [(freq, sym) for sym, freq in enumerate(freqs) if freq > 0]
    lengths = [0] * len(freqs)
    if not live:
        return lengths
    if len(live) == 1:
        lengths[live[0][1]] = 1
        return lengths
    # Heap of (weight, tiebreak, node); internal nodes carry child lists.
    heap: list[tuple[int, int, list[int]]] = []
    for order, (freq, sym) in enumerate(sorted(live)):
        heapq.heappush(heap, (freq, order, [sym]))
    tiebreak = len(live)
    while len(heap) > 1:
        w1, _, kids1 = heapq.heappop(heap)
        w2, _, kids2 = heapq.heappop(heap)
        for sym in kids1:
            lengths[sym] += 1
        for sym in kids2:
            lengths[sym] += 1
        heapq.heappush(heap, (w1 + w2, tiebreak, kids1 + kids2))
        tiebreak += 1
    return lengths


def dpzip_canonize(
    lengths: list[int],
    freqs: list[int],
    max_bits: int = DPZIP_MAX_BITS,
) -> tuple[list[int], CanonizerReport]:
    """Apply DPZip's three-stage length-limiting to ``lengths``.

    Returns a new length vector satisfying ``length <= max_bits`` and the
    Kraft inequality, together with the cycle report.  Demotion victims
    are chosen lowest-frequency-first so the ratio penalty stays small,
    matching the deterministic hardware walk.
    """
    if max_bits < 1:
        raise CompressionError(f"max_bits must be >= 1, got {max_bits}")
    report = CanonizerReport()
    out = list(lengths)
    full = 1 << max_bits

    # Stage 1: leaf scan & cap.
    used = 0
    for symbol, length in enumerate(out):
        if length == 0:
            continue
        report.leaf_count += 1
        if length > max_bits:
            report.capped_leaves += 1
            out[symbol] = max_bits
        used += 1 << (max_bits - out[symbol])
    deficit = used - full
    report.deficit = max(deficit, 0)
    if report.leaf_count and (1 << max_bits) < report.leaf_count:
        raise CompressionError(
            f"{report.leaf_count} symbols cannot fit in {max_bits}-bit codes"
        )

    # Stage 2: deterministic redistribution, levels max-1 -> 1.  Demoting
    # one leaf from level L to L+1 frees 2^(max-L-1) slots.
    if deficit > 0:
        by_level: dict[int, list[int]] = {}
        for symbol, length in enumerate(out):
            if 0 < length < max_bits:
                by_level.setdefault(length, []).append(symbol)
        for level_symbols in by_level.values():
            level_symbols.sort(key=lambda s: (freqs[s], s))
        for level in range(max_bits - 1, 0, -1):
            if deficit <= 0:
                break
            report.redistribution_levels += 1
            gain = 1 << (max_bits - level - 1)
            pool = by_level.get(level, [])
            while pool and deficit > 0:
                victim = pool.pop(0)
                out[victim] = level + 1
                deficit -= gain
                if level + 1 < max_bits:
                    by_level.setdefault(level + 1, []).append(victim)
        if deficit > 0:
            raise CompressionError("canonizer could not absorb Kraft deficit")

    # Stage 3: logarithmic hole repair.  Integer demotions may over-free;
    # promote frequent leaves back up, granted slots halving per pass.
    used = sum((1 << (max_bits - length)) for length in out if length)
    hole = full - used
    if report.leaf_count == 1:
        hole = 0  # single-symbol trees keep their 1-bit code
    while hole > 0:
        report.repair_iterations += 1
        grant = 1 << (hole.bit_length() - 1)
        best_symbol = -1
        best_freq = -1
        for symbol, length in enumerate(out):
            if length <= 1:
                continue
            cost = 1 << (max_bits - length)  # extra slots if promoted
            if cost <= grant and freqs[symbol] > best_freq:
                best_freq = freqs[symbol]
                best_symbol = symbol
        if best_symbol < 0:
            break  # hole smaller than any promotion; tree stays valid
        out[best_symbol] -= 1
        hole -= 1 << (max_bits - out[best_symbol] - 1)
    return out, report


def build_huffman_table(
    freqs: list[int], max_bits: int = DPZIP_MAX_BITS
) -> HuffmanTable:
    """Histogram -> canonical, length-limited Huffman table."""
    raw = build_code_lengths(freqs)
    limited, report = dpzip_canonize(raw, freqs, max_bits)
    table = HuffmanTable(limited, max_bits=max_bits, report=report)
    return table


def serialize_lengths(lengths: list[int], writer: BitWriter) -> None:
    """Nibble-pack a length vector with zero-run compression.

    Layout: u16 symbol count, then a nibble stream (values 0..11 are
    literal lengths; 12 and 13 open short/long zero runs).
    """
    writer.write(len(lengths), 16)
    nibbles: list[int] = []
    i = 0
    while i < len(lengths):
        length = lengths[i]
        if length == 0:
            run = 1
            while i + run < len(lengths) and lengths[i + run] == 0:
                run += 1
            while run >= _ZRUN_LONG_MIN:
                chunk = min(run, _ZRUN_LONG_MIN + 255)
                nibbles.append(_NIB_ZRUN_LONG)
                encoded = chunk - _ZRUN_LONG_MIN
                nibbles.append(encoded & 0xF)
                nibbles.append(encoded >> 4)
                run -= chunk
            if run >= _ZRUN_SHORT_MIN:
                nibbles.append(_NIB_ZRUN_SHORT)
                nibbles.append(run - _ZRUN_SHORT_MIN)
                run = 0
            nibbles.extend([0] * run)
            i += 1
            while i < len(lengths) and lengths[i] == 0:
                i += 1
        else:
            if length > DPZIP_MAX_BITS:
                raise CompressionError(
                    f"cannot serialize length {length} > {DPZIP_MAX_BITS}"
                )
            nibbles.append(length)
            i += 1
    for nibble in nibbles:
        writer.write(nibble, 4)
    if len(nibbles) % 2:
        writer.write(0, 4)


def parse_lengths(reader: BitReader) -> list[int]:
    """Inverse of :func:`serialize_lengths`."""
    count = reader.read(16)
    lengths: list[int] = []
    while len(lengths) < count:
        nibble = reader.read(4)
        if nibble == _NIB_ZRUN_SHORT:
            run = reader.read(4) + _ZRUN_SHORT_MIN
            lengths.extend([0] * run)
        elif nibble == _NIB_ZRUN_LONG:
            low = reader.read(4)
            high = reader.read(4)
            run = ((high << 4) | low) + _ZRUN_LONG_MIN
            lengths.extend([0] * run)
        elif nibble <= DPZIP_MAX_BITS:
            lengths.append(nibble)
        else:
            raise DecompressionError(f"bad nibble {nibble} in length table")
    if len(lengths) != count:
        raise DecompressionError(
            f"length table overran: {len(lengths)} > {count}"
        )
    reader.align()
    return lengths


def encode_block(
    symbols: bytes | list[int],
    max_bits: int = DPZIP_MAX_BITS,
    alphabet: int = 256,
) -> tuple[bytes, CanonizerReport]:
    """Huffman-compress a symbol block into a self-describing payload.

    Layout: serialized lengths (byte-aligned) then the code bitstream.
    Raises :class:`CompressionError` on empty input.
    """
    if len(symbols) == 0:
        raise CompressionError("cannot Huffman-encode an empty block")
    freqs = [0] * alphabet
    for symbol in symbols:
        freqs[symbol] += 1
    table = build_huffman_table(freqs, max_bits)
    writer = BitWriter()
    serialize_lengths(table.lengths, writer)
    writer.align()
    # Every symbol was counted into ``freqs``, so every one has a code.
    codes = table.reversed_codes
    write = writer.write
    for symbol in symbols:
        code, length = codes[symbol]
        write(code, length)
    return writer.getvalue(), table.report


def decode_block(
    payload: bytes, count: int, max_bits: int = DPZIP_MAX_BITS
) -> list[int]:
    """Inverse of :func:`encode_block`; returns ``count`` symbols."""
    reader = BitReader(payload)
    lengths = parse_lengths(reader)
    table = HuffmanTable(lengths, max_bits=max_bits)
    lookup, width = table.decoder()
    read_prefix = reader.read_prefix
    symbols = []
    for _ in range(count):
        symbol = read_prefix(lookup, width)
        symbols.append(symbol if symbol >= 0
                       else table.decode_symbol(reader))
    return symbols
