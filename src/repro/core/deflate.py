"""Deflate-like codec (the CPU and QAT baseline algorithm).

Structurally follows RFC 1951: LZ77 over a 32 KB window, then a single
Huffman-coded stream mixing literal bytes with length codes, plus a
second Huffman table for distance codes (both with the RFC extra-bit
bucket tables).  Two deliberate deviations, documented for fidelity:

* code lengths are capped at 11 bits (so the nibble-packed table
  serialization is shared with DPZip).  On the <=64 KB blocks this
  package compresses, depth >11 essentially never occurs, so the ratio
  impact is negligible;
* minimum match length is 4 (shared tokenizer), vs. RFC 1951's 3.

The QAT devices in the paper implement Deflate in hardware; they reuse
this codec functionally and differ only in their device/cost models.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace

from repro.core import huffman
from repro.core.bitio import BitReader, BitWriter
from repro.core.matchers import ChainMatcher, ChainMatcherConfig, config_for_level
from repro.core.tokens import MIN_MATCH, TokenStream, copy_match
from repro.errors import CompressionError, DecompressionError

_EOB = 256  # end-of-block symbol

# RFC 1951 length code tables (codes 257..285 -> symbol index 257+i).
_LENGTH_BASE = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51,
    59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
]
_LENGTH_EXTRA = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
    4, 5, 5, 5, 5, 0,
]
_DIST_BASE = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
    513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
]
_DIST_EXTRA = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
    10, 11, 11, 12, 12, 13, 13,
]

_LITLEN_ALPHABET = 286
_DIST_ALPHABET = 30
_MAX_MATCH = 258

_MODE_RAW = 0
_MODE_DYNAMIC = 1


def _length_symbol(length: int) -> tuple[int, int, int]:
    """Match length -> ``(symbol, extra_value, extra_bits)``."""
    if length < 3 or length > _MAX_MATCH:
        raise CompressionError(f"deflate length {length} out of range")
    return _LENGTH_SYMBOLS[length]


def _scan_length_symbol(length: int) -> tuple[int, int, int]:
    """The RFC 1951 length-code scan :data:`_LENGTH_SYMBOLS` tabulates."""
    for index in range(len(_LENGTH_BASE) - 1, -1, -1):
        if length >= _LENGTH_BASE[index]:
            if index == len(_LENGTH_BASE) - 1 and length != 258:
                continue
            return (257 + index, length - _LENGTH_BASE[index],
                    _LENGTH_EXTRA[index])
    raise CompressionError(f"unmappable deflate length {length}")


#: Length -> ``(symbol, extra_value, extra_bits)`` for lengths 3..258.
_LENGTH_SYMBOLS = {length: _scan_length_symbol(length)
                   for length in range(3, _MAX_MATCH + 1)}


def _distance_symbol(distance: int) -> tuple[int, int, int]:
    """Match offset -> ``(symbol, extra_value, extra_bits)``."""
    if distance < 1 or distance > 32768:
        raise CompressionError(f"deflate distance {distance} out of range")
    # The last code whose base does not exceed the distance.
    index = bisect_right(_DIST_BASE, distance) - 1
    return index, distance - _DIST_BASE[index], _DIST_EXTRA[index]


@dataclass
class DeflateStats:
    """Work counters surfaced to the CPU/QAT cost models."""

    litlen_symbols: int = 0
    dist_symbols: int = 0
    table_builds: int = 0
    matcher: dict = field(default_factory=dict)


class DeflateCodec:
    """Deflate-like compressor with level-parameterized search."""

    name = "deflate"

    def __init__(self, level: int = 1,
                 config: ChainMatcherConfig | None = None) -> None:
        self.level = level
        if config is None:
            config = config_for_level(level)
        # Deflate's window and match cap are fixed by the format.  Copy:
        # ``config_for_level`` hands out the shared preset objects.
        config = replace(config, window_log=min(config.window_log, 15),
                         max_match=_MAX_MATCH)
        self._matcher = ChainMatcher(config)
        self.last_stats = DeflateStats()

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-contained deflate-like frame."""
        stats = DeflateStats()
        tokens = self._matcher.tokenize(data)
        stats.matcher = vars(self._matcher.stats).copy()
        payload = self._encode(data, tokens, stats)
        self.last_stats = stats
        return payload

    def decompress(self, payload: bytes) -> bytes:
        """Inverse of :meth:`compress`."""
        if not payload:
            raise DecompressionError("empty deflate frame")
        reader = BitReader(payload)
        mode = reader.read(8)
        size = reader.read(32)
        if mode == _MODE_RAW:
            return reader.read_bytes(size)
        if mode != _MODE_DYNAMIC:
            raise DecompressionError(f"unknown deflate mode {mode}")
        litlen_lengths = huffman.parse_lengths(reader)
        dist_lengths = huffman.parse_lengths(reader)
        litlen = huffman.HuffmanTable(litlen_lengths)
        dist = huffman.HuffmanTable(dist_lengths)
        # Table-driven decode; -1 falls back to the exact bit-serial walk.
        litlen_lookup, litlen_bits = litlen.decoder()
        dist_lookup, dist_bits = dist.decoder()
        read_prefix = reader.read_prefix
        read = reader.read
        out = bytearray()
        while True:
            symbol = read_prefix(litlen_lookup, litlen_bits)
            if symbol < 0:
                symbol = litlen.decode_symbol(reader)
            if symbol < 256:
                out.append(symbol)
                continue
            if symbol == _EOB:
                break
            index = symbol - 257
            length = _LENGTH_BASE[index] + read(_LENGTH_EXTRA[index])
            dsym = read_prefix(dist_lookup, dist_bits)
            if dsym < 0:
                dsym = dist.decode_symbol(reader)
            distance = _DIST_BASE[dsym] + read(_DIST_EXTRA[dsym])
            if len(out) < distance:
                raise DecompressionError("deflate distance before start")
            copy_match(out, distance, length)
        if len(out) != size:
            raise DecompressionError(
                f"deflate decoded {len(out)} bytes, header says {size}"
            )
        return bytes(out)

    # -- internals ----------------------------------------------------------

    def _encode(self, data: bytes, tokens: TokenStream,
                stats: DeflateStats) -> bytes:
        # Literal symbols as ints; each match piece as one tuple
        # (symbol, extra, bits, dist symbol, dist extra, dist bits).
        symbols: list = []
        litlen_freqs = [0] * _LITLEN_ALPHABET
        dist_freqs = [0] * _DIST_ALPHABET
        literals = tokens.literals
        lit_pos = 0
        for seq in tokens.sequences:
            run = literals[lit_pos:lit_pos + seq.literal_length]
            symbols.extend(run)
            for b in run:
                litlen_freqs[b] += 1
            lit_pos += seq.literal_length
            if seq.match_length:
                # Chop matches beyond the format cap into 258-byte pieces.
                remaining = seq.match_length
                while remaining:
                    piece = min(remaining, _MAX_MATCH)
                    if remaining - piece in (1, 2, 3):
                        piece = remaining - MIN_MATCH
                    sym, extra, bits = _length_symbol(piece)
                    dsym, dextra, dbits = _distance_symbol(seq.offset)
                    symbols.append((sym, extra, bits, dsym, dextra, dbits))
                    litlen_freqs[sym] += 1
                    dist_freqs[dsym] += 1
                    remaining -= piece
        symbols.append(_EOB)
        litlen_freqs[_EOB] += 1

        litlen_table = huffman.build_huffman_table(litlen_freqs)
        stats.table_builds += 1
        writer = BitWriter()
        writer.write(_MODE_DYNAMIC, 8)
        writer.write(len(data), 32)
        huffman.serialize_lengths(litlen_table.lengths, writer)
        if any(dist_freqs):
            dist_table = huffman.build_huffman_table(dist_freqs)
            stats.table_builds += 1
        else:
            dist_table = huffman.HuffmanTable([0] * _DIST_ALPHABET)
        huffman.serialize_lengths(dist_table.lengths, writer)
        # Every symbol was counted into the frequencies, so has a code.
        # A code and its extra bits go out in one LSB-first write.
        litlen_codes = litlen_table.reversed_codes
        dist_codes = dist_table.reversed_codes
        write = writer.write
        matches = 0
        for symbol in symbols:
            if symbol.__class__ is int:
                code, length = litlen_codes[symbol]
                write(code, length)
                continue
            sym, extra, bits, dsym, dextra, dbits = symbol
            code, length = litlen_codes[sym]
            write(code | extra << length, length + bits)
            code, length = dist_codes[dsym]
            write(code | dextra << length, length + dbits)
            matches += 1
        stats.litlen_symbols += len(symbols)
        stats.dist_symbols += matches
        payload = writer.getvalue()
        raw_size = 5 + len(data)
        if len(payload) >= raw_size:
            raw = BitWriter()
            raw.write(_MODE_RAW, 8)
            raw.write(len(data), 32)
            raw.align()
            raw.write_bytes(data)
            return raw.getvalue()
        return payload


def roundtrip_check(data: bytes, level: int = 1) -> bool:
    """Self-test helper: compress + decompress and compare."""
    codec = DeflateCodec(level)
    return codec.decompress(codec.compress(data)) == data
