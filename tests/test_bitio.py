"""Unit and property tests for the bit-level IO primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bitio import BitReader, BitWriter
from repro.errors import BitstreamError


class TestBitWriter:
    def test_empty_writer_produces_no_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.getvalue() == b"\xab"

    def test_lsb_first_packing(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0b11, 2)
        # bits: 1, then 11 -> byte 0b00000111
        assert writer.getvalue() == bytes([0b111])

    def test_partial_byte_zero_padded(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        assert writer.getvalue() == bytes([0b101])

    def test_write_masks_extra_bits(self):
        writer = BitWriter()
        writer.write(0x1FF, 8)  # only low 8 bits retained
        assert writer.getvalue() == b"\xff"

    def test_zero_bits_is_noop(self):
        writer = BitWriter()
        writer.write(123, 0)
        assert writer.bit_length == 0

    def test_negative_nbits_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(1, -1)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_write_bytes_requires_alignment(self):
        writer = BitWriter()
        writer.write(1, 3)
        with pytest.raises(BitstreamError):
            writer.write_bytes(b"xy")

    def test_align_then_write_bytes(self):
        writer = BitWriter()
        writer.write(1, 3)
        writer.align()
        writer.write_bytes(b"xy")
        assert writer.getvalue() == bytes([1]) + b"xy"

    def test_bit_length_tracks_total(self):
        writer = BitWriter()
        writer.write(0, 5)
        writer.write(0, 9)
        assert writer.bit_length == 14


class TestBitReader:
    def test_read_back_single_value(self):
        writer = BitWriter()
        writer.write(0x2A5, 10)
        reader = BitReader(writer.getvalue())
        assert reader.read(10) == 0x2A5

    def test_read_zero_bits(self):
        assert BitReader(b"\xff").read(0) == 0

    def test_overrun_raises(self):
        reader = BitReader(b"\x01")
        reader.read(8)
        with pytest.raises(BitstreamError):
            reader.read(1)

    def test_peek_does_not_consume(self):
        reader = BitReader(b"\xa5")
        assert reader.peek(4) == 0x5
        assert reader.read(8) == 0xA5

    def test_peek_past_end_reads_zero(self):
        reader = BitReader(b"\x01")
        assert reader.peek(16) == 0x01

    def test_skip_after_peek(self):
        reader = BitReader(b"\xff\x00")
        reader.peek(8)
        reader.skip(4)
        assert reader.read(4) == 0xF

    def test_skip_more_than_buffered_raises(self):
        reader = BitReader(b"\xff")
        with pytest.raises(BitstreamError):
            reader.skip(4)

    def test_read_prefix_consumes_the_entry_length(self):
        # 2-bit table: index 0b01 holds value 9 with a 1-bit code.
        table = [0, 9 << 4 | 1, 0, 0]
        reader = BitReader(b"\x05")  # bits 1, 0, 1, 0, ...
        assert reader.read_prefix(table, 2) == 9
        assert reader.bits_consumed == 1

    def test_read_prefix_leaves_stream_on_miss(self):
        table = [0, 0, 0, 0]
        reader = BitReader(b"\xa5")
        assert reader.read_prefix(table, 2) == -1
        assert reader.read(8) == 0xA5
        # Fewer bits left than the width: -1, nothing consumed.
        reader = BitReader(b"\x01")
        reader.read(3)
        assert reader.read_prefix([1 << 4 | 1] * 64, 6) == -1
        assert reader.bits_consumed == 3
        assert reader.read(5) == 0

    def test_align_drops_partial_byte(self):
        reader = BitReader(b"\xff\x0f")
        reader.read(3)
        reader.align()
        assert reader.read(8) == 0x0F

    def test_read_bytes_roundtrip(self):
        writer = BitWriter()
        writer.write_bytes(b"hello")
        reader = BitReader(writer.getvalue())
        assert reader.read_bytes(5) == b"hello"

    def test_read_bytes_after_aligned_bits(self):
        writer = BitWriter()
        writer.write(3, 8)
        writer.write_bytes(b"ab")
        reader = BitReader(writer.getvalue())
        assert reader.read(8) == 3
        assert reader.read_bytes(2) == b"ab"

    def test_bits_consumed(self):
        reader = BitReader(b"\xff\xff")
        reader.read(5)
        assert reader.bits_consumed >= 5


@given(st.lists(st.tuples(st.integers(0, 2**24 - 1), st.integers(1, 24)),
                min_size=1, max_size=200))
def test_writer_reader_roundtrip_property(fields):
    """Any sequence of (value, width) writes reads back exactly."""
    writer = BitWriter()
    for value, width in fields:
        writer.write(value & ((1 << width) - 1), width)
    reader = BitReader(writer.getvalue())
    for value, width in fields:
        assert reader.read(width) == value & ((1 << width) - 1)


@given(st.binary(max_size=64), st.integers(1, 16))
def test_peek_equals_subsequent_read(data, width):
    if not data:
        return
    r1 = BitReader(data)
    r2 = BitReader(data)
    total_bits = len(data) * 8
    width = min(width, total_bits)
    assert r1.peek(width) == r2.read(width)
