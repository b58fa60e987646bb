"""Tests for DPZip's hardware LZ77 engine and the bounded hash table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashtable import (
    BoundedHashTable,
    hash_pair,
    hash_word,
    hash_words,
)
from repro.core.lz77 import (
    DpzipLz77Decoder,
    DpzipLz77Encoder,
    RECENT_BUFFER_BYTES,
)
from repro.core.tokens import Sequence, TokenStream, copy_match, reconstruct
from repro.errors import CompressionError


class TestHashTable:
    def test_hash_width(self):
        for word in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
            assert 0 <= hash_word(word, 12) < (1 << 12)

    def test_hash_pair_decorrelated(self):
        collisions = sum(
            1 for w in range(1000)
            if hash_pair(w * 2654435761 % (1 << 32), 12)[0]
            == hash_pair(w * 2654435761 % (1 << 32), 12)[1]
        )
        assert collisions < 50

    @pytest.mark.parametrize("size", [0, 1, 3, 4, 5, 6, 7, 8, 9, 64, 1001])
    def test_hash_words_hashes_every_position(self, size):
        data = random.Random(size).randbytes(size)
        assert hash_words(data, 14) == [
            hash_word(int.from_bytes(data[p:p + 4], "little"), 14)
            for p in range(size - 3)]

    def test_reset_keeps_counters_and_order_fresh(self):
        table = BoundedHashTable(index_bits=4, ways=2)
        for pos in (1, 2, 3):
            table.insert(7, pos)
        table.reset()
        assert (table.stats.inserts, table.stats.evictions) == (0, 0)
        for pos in (4, 5, 6):
            table.insert(7, pos)
        assert table.candidates(7) == [6, 5]
        assert table.stats.evictions == 1

    def test_fifo_eviction(self):
        table = BoundedHashTable(index_bits=4, ways=2)
        table.insert(3, 100)
        table.insert(3, 200)
        table.insert(3, 300)  # evicts 100
        candidates = table.candidates(3)
        assert candidates == [300, 200]
        assert table.stats.evictions == 1

    def test_newest_first_order(self):
        table = BoundedHashTable(index_bits=4, ways=4)
        for pos in (1, 2, 3):
            table.insert(5, pos)
        assert table.candidates(5) == [3, 2, 1]

    def test_reset_clears(self):
        table = BoundedHashTable(index_bits=4, ways=2)
        table.insert(0, 9)
        table.reset()
        assert table.candidates(0) == []

    def test_sram_footprint(self):
        table = BoundedHashTable(index_bits=12, ways=4)
        assert table.sram_bytes == (1 << 12) * 4 * 4


class TestTokenStream:
    def test_sequence_validation(self):
        with pytest.raises(CompressionError):
            Sequence(0, 2, 1)  # below MIN_MATCH
        with pytest.raises(CompressionError):
            Sequence(0, 4, 0)  # zero offset
        with pytest.raises(CompressionError):
            Sequence(-1, 0, 0)

    def test_reconstruct_literals_only(self):
        stream = TokenStream(b"abc", [Sequence(3, 0, 0)])
        assert reconstruct(stream) == b"abc"

    def test_reconstruct_with_match(self):
        stream = TokenStream(b"abcd", [Sequence(4, 4, 4)])
        assert reconstruct(stream) == b"abcdabcd"

    def test_overlapping_copy_replicates(self):
        stream = TokenStream(b"ab", [Sequence(2, 6, 2)])
        assert reconstruct(stream) == b"abababab"

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=40), st.data())
    def test_copy_match_is_byte_at_a_time(self, history, data):
        offset = data.draw(st.integers(1, len(history)))
        length = data.draw(st.integers(0, 100))
        expected = bytearray(history)
        src = len(expected) - offset
        for i in range(length):
            expected.append(expected[src + i])
        out = bytearray(history)
        copy_match(out, offset, length)
        assert out == expected

    def test_stream_validate_offset_bounds(self):
        stream = TokenStream(b"ab", [Sequence(2, 4, 10)])
        with pytest.raises(CompressionError):
            stream.validate()


class TestDpzipEncoder:
    def _roundtrip(self, data, **kwargs):
        encoder = DpzipLz77Encoder(**kwargs)
        stream = encoder.encode(data)
        return reconstruct(stream), encoder

    @pytest.mark.parametrize("data", [
        b"",
        b"x",
        b"abcd",
        b"hello world hello world hello world",
        b"\x00" * 4096,
        bytes(range(256)) * 16,
    ])
    def test_roundtrip(self, data):
        decoded, _ = self._roundtrip(data)
        assert decoded == data

    def test_random_data_roundtrip(self):
        data = random.Random(7).randbytes(4096)
        decoded, _ = self._roundtrip(data)
        assert decoded == data

    def test_redundant_data_finds_matches(self):
        data = b"pattern-one " * 300
        stream = DpzipLz77Encoder().encode(data)
        assert stream.total_match_bytes > len(data) * 0.8

    def test_window_respected(self):
        encoder = DpzipLz77Encoder(window=64)
        data = b"A" * 32 + random.Random(1).randbytes(200) + b"A" * 32
        stream = encoder.encode(data)
        for seq in stream.sequences:
            if seq.match_length:
                assert seq.offset <= 64

    def test_skip_groups_on_incompressible(self):
        encoder = DpzipLz77Encoder()
        encoder.encode(random.Random(3).randbytes(4096))
        stats = encoder.stats
        assert stats.skipped_groups > stats.groups * 0.9

    def test_first_fit_policy_stats(self):
        encoder = DpzipLz77Encoder()
        encoder.encode(b"abcdefgh" * 512)
        assert encoder.stats.sequences > 0
        assert encoder.stats.matched_bytes > 0

    def test_stats_merge_across_calls(self):
        encoder = DpzipLz77Encoder()
        encoder.encode(b"hello world " * 100)
        first = encoder.stats.groups
        encoder.encode(b"hello world " * 100)
        assert encoder.stats.groups > first


class TestDpzipDecoder:
    def test_decoder_matches_reference(self):
        data = b"compression ratio " * 200
        stream = DpzipLz77Encoder().encode(data)
        decoder = DpzipLz77Decoder()
        assert decoder.decode(stream) == reconstruct(stream)

    def test_short_offset_counted_for_register_buffer(self):
        data = b"ab" * 2000  # offset 2 matches
        stream = DpzipLz77Encoder().encode(data)
        decoder = DpzipLz77Decoder()
        decoder.decode(stream)
        assert decoder.stats.short_offset_matches > 0
        assert decoder.stats.history_reads == 0 or True

    def test_long_offset_counted_as_history_read(self):
        prefix = bytes(random.Random(2).randbytes(RECENT_BUFFER_BYTES * 2))
        data = prefix + b"X" * 8 + prefix
        stream = DpzipLz77Encoder().encode(data)
        decoder = DpzipLz77Decoder()
        decoder.decode(stream)
        assert decoder.stats.history_reads > 0


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=3000))
def test_lz77_roundtrip_property(data):
    encoder = DpzipLz77Encoder()
    stream = encoder.encode(data)
    assert reconstruct(stream) == data
    assert DpzipLz77Decoder().decode(stream) == data


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="abcab ", min_size=0, max_size=4000))
def test_lz77_redundant_text_property(text):
    data = text.encode()
    encoder = DpzipLz77Encoder()
    stream = encoder.encode(data)
    assert reconstruct(stream) == data
    # Total accounting invariant.
    assert stream.total_literals + stream.total_match_bytes == len(data)
