"""Tests for canonical Huffman coding and DPZip's 3-stage canonizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import huffman
from repro.core.bitio import BitReader, BitWriter
from repro.errors import BitstreamError, CompressionError, DecompressionError


def _kraft(lengths, max_bits):
    return sum((1 << (max_bits - length)) for length in lengths if length)


class TestBuildCodeLengths:
    def test_empty_histogram(self):
        assert huffman.build_code_lengths([0, 0, 0]) == [0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        lengths = huffman.build_code_lengths([0, 5, 0])
        assert lengths[1] == 1

    def test_two_symbols(self):
        lengths = huffman.build_code_lengths([3, 7])
        assert lengths == [1, 1]

    def test_skewed_distribution_is_shorter_for_frequent(self):
        freqs = [1000, 10, 10, 10]
        lengths = huffman.build_code_lengths(freqs)
        assert lengths[0] < max(lengths[1:])

    def test_uniform_256_gives_8_bits(self):
        lengths = huffman.build_code_lengths([7] * 256)
        assert all(length == 8 for length in lengths)

    def test_kraft_equality_for_optimal_tree(self):
        freqs = [5, 9, 12, 13, 16, 45]
        lengths = huffman.build_code_lengths(freqs)
        assert _kraft(lengths, max(lengths)) == 1 << max(lengths)


class TestDpzipCanonizer:
    def test_already_valid_lengths_unchanged_kraft(self):
        freqs = [10, 20, 30, 40]
        lengths = huffman.build_code_lengths(freqs)
        limited, report = huffman.dpzip_canonize(lengths, freqs, max_bits=11)
        assert _kraft(limited, 11) <= 1 << 11
        assert report.capped_leaves == 0

    def test_deep_tree_capped_at_11(self):
        # Fibonacci-ish frequencies force depth > 11 with 30 symbols.
        freqs = [1, 1]
        while len(freqs) < 30:
            freqs.append(freqs[-1] + freqs[-2])
        lengths = huffman.build_code_lengths(freqs)
        assert max(lengths) > 11
        limited, report = huffman.dpzip_canonize(lengths, freqs, 11)
        assert max(limited) <= 11
        assert report.capped_leaves > 0
        assert _kraft(limited, 11) <= 1 << 11

    def test_cycle_bound_274(self):
        """Worst-case schedule: 256 scan + 10 redistribute + 8 repair."""
        freqs = [1, 1]
        while len(freqs) < 256:
            freqs.append(min(freqs[-1] + freqs[-2], 1 << 40))
        lengths = huffman.build_code_lengths(freqs)
        _, report = huffman.dpzip_canonize(lengths, freqs, 11)
        assert report.cycles <= 274

    def test_all_symbols_present_fits(self):
        freqs = [1] * 256
        lengths = huffman.build_code_lengths(freqs)
        limited, _ = huffman.dpzip_canonize(lengths, freqs, 11)
        assert max(limited) <= 11
        assert _kraft(limited, 11) <= 1 << 11

    def test_too_many_symbols_for_width_rejected(self):
        freqs = [1] * 8
        lengths = huffman.build_code_lengths(freqs)
        with pytest.raises(CompressionError):
            huffman.dpzip_canonize(lengths, freqs, max_bits=2)

    def test_demotion_prefers_rare_symbols(self):
        freqs = [1, 1]
        while len(freqs) < 40:
            freqs.append(freqs[-1] + freqs[-2])
        lengths = huffman.build_code_lengths(freqs)
        limited, _ = huffman.dpzip_canonize(lengths, freqs, 11)
        # The most frequent symbol keeps a short code.
        top = max(range(len(freqs)), key=lambda s: freqs[s])
        assert limited[top] <= 4


class TestEncodeDecode:
    @pytest.mark.parametrize("data", [
        b"a",
        b"ab" * 50,
        b"the quick brown fox jumps over the lazy dog " * 20,
        bytes(range(256)) * 4,
        b"\x00" * 500,
    ])
    def test_roundtrip(self, data):
        payload, report = huffman.encode_block(data)
        assert bytes(huffman.decode_block(payload, len(data))) == data
        assert report.cycles <= 274

    def test_empty_block_rejected(self):
        with pytest.raises(CompressionError):
            huffman.encode_block(b"")

    def test_skewed_data_compresses(self):
        data = b"a" * 900 + b"b" * 90 + b"c" * 10
        payload, _ = huffman.encode_block(data)
        assert len(payload) < len(data) // 2

    def test_uniform_random_does_not_explode(self):
        import random
        data = random.Random(5).randbytes(2048)
        payload, _ = huffman.encode_block(data)
        # header + ~8 bits/symbol: bounded near input size
        assert len(payload) < len(data) * 1.2 + 160


def _fib_freqs(count):
    freqs = [1, 1]
    while len(freqs) < count:
        freqs.append(freqs[-1] + freqs[-2])
    return freqs


class TestTableDecode:
    """The lookup-table decode is exact at the stream tail and on errors."""

    def _encode(self, table, symbols):
        writer = BitWriter()
        for symbol in symbols:
            table.encode_symbol(symbol, writer)
        return writer.bit_length, writer.getvalue()

    def test_tail_shorter_than_table_width_decodes_exactly(self):
        table = huffman.build_huffman_table(_fib_freqs(16))
        shortest = min(range(16), key=lambda s: table.lengths[s])
        longest = max(range(16), key=lambda s: table.lengths[s])
        assert table.lengths[longest] == 11
        assert table.lengths[shortest] == 1
        symbols = [longest, 3, longest, shortest, shortest, shortest]
        bits, payload = self._encode(table, symbols)
        reader = BitReader(payload)
        decoded = []
        for symbol in symbols:
            remaining = len(payload) * 8 - reader.bits_consumed
            decoded.append(table.decode_symbol(reader))
        # The last symbols decode with fewer bits left than the width.
        assert remaining < table.lengths[longest]
        assert decoded == symbols
        assert reader.bits_consumed == bits

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=300),
           st.integers(1, 11))
    def test_matches_bit_serial_decode(self, symbols, max_bits):
        freqs = [0] * 41
        for symbol in symbols:
            freqs[symbol] += 1
        try:
            table = huffman.build_huffman_table(freqs, max_bits)
        except CompressionError:
            return  # too many symbols for the width
        bits, payload = self._encode(table, symbols)
        reader = BitReader(payload)
        assert [table.decode_symbol(reader) for _ in symbols] == symbols
        assert reader.bits_consumed == bits

    def test_invalid_code_raises_decompression_error(self):
        # Codes "0" and "10"; "11" starts no code.
        table = huffman.HuffmanTable([1, 2])
        with pytest.raises(DecompressionError, match="invalid Huffman"):
            table.decode_symbol(BitReader(b"\xff\xff"))
        # Fewer bits than the longest possible code: the stream runs out.
        with pytest.raises(BitstreamError):
            table.decode_symbol(BitReader(b"\xff"))
        assert table.decode_symbol(BitReader(b"\x01")) == 1

    def test_single_symbol_table_round_trips(self):
        table = huffman.HuffmanTable([0, 1, 0])
        bits, payload = self._encode(table, [1] * 13)
        reader = BitReader(payload)
        assert [table.decode_symbol(reader) for _ in range(13)] == [1] * 13
        assert reader.bits_consumed == bits == 13
        with pytest.raises(DecompressionError, match="invalid Huffman"):
            table.decode_symbol(BitReader(b"\x01\xff"))

    def test_empty_table_decodes_nothing(self):
        table = huffman.HuffmanTable([0] * 30)
        with pytest.raises(DecompressionError, match="invalid Huffman"):
            table.decode_symbol(BitReader(bytes(2)))
        with pytest.raises(BitstreamError):
            table.decode_symbol(BitReader(bytes(1)))

    def test_block_tail_is_exact(self):
        data = b"a" * 997 + b"bc"
        payload, _ = huffman.encode_block(data)
        assert bytes(huffman.decode_block(payload, len(data))) == data
        with pytest.raises(BitstreamError):
            huffman.decode_block(payload[:-1], len(data))


class TestLengthSerialization:
    def test_roundtrip_sparse(self):
        lengths = [0] * 256
        lengths[65] = 3
        lengths[66] = 3
        lengths[200] = 2
        lengths[201] = 2
        writer = BitWriter()
        huffman.serialize_lengths(lengths, writer)
        writer.align()
        assert huffman.parse_lengths(BitReader(writer.getvalue())) == lengths

    def test_roundtrip_dense(self):
        lengths = [(i % 11) + 1 for i in range(256)]
        writer = BitWriter()
        huffman.serialize_lengths(lengths, writer)
        writer.align()
        assert huffman.parse_lengths(BitReader(writer.getvalue())) == lengths

    def test_long_zero_run(self):
        lengths = [1, 1] + [0] * 250 + [2, 2, 2, 2]
        writer = BitWriter()
        huffman.serialize_lengths(lengths, writer)
        writer.align()
        assert huffman.parse_lengths(BitReader(writer.getvalue())) == lengths

    def test_length_over_11_rejected(self):
        with pytest.raises(CompressionError):
            writer = BitWriter()
            huffman.serialize_lengths([12], writer)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=1500))
def test_huffman_roundtrip_property(data):
    payload, _ = huffman.encode_block(data)
    assert bytes(huffman.decode_block(payload, len(data))) == data


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1 << 20), min_size=2, max_size=256))
def test_canonizer_always_satisfies_kraft(freqs):
    if sum(1 for f in freqs if f > 0) < 1:
        return
    lengths = huffman.build_code_lengths(freqs)
    limited, report = huffman.dpzip_canonize(lengths, freqs, 11)
    assert max(limited) <= 11
    assert _kraft(limited, 11) <= 1 << 11
    assert report.cycles <= 274
    # present symbols keep codes, absent symbols stay absent
    for symbol, freq in enumerate(freqs):
        assert (limited[symbol] > 0) == (freq > 0)
