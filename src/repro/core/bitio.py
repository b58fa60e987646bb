"""Bit-granular IO used by the entropy coders.

The writers/readers are LSB-first (DEFLATE convention): the first bit
written occupies the least significant free bit of the current byte.
All entropy stages in :mod:`repro.core` (Huffman, FSE, Deflate-like
extra bits) share these primitives so framing is uniform.
"""

from __future__ import annotations

from repro.errors import BitstreamError


class BitWriter:
    """Accumulates bits LSB-first into a growable byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low-order bits of ``value``.

        ``nbits`` may be zero, in which case nothing is emitted.
        """
        if nbits <= 0 or value < 0:
            if nbits < 0:
                raise ValueError(f"nbits must be >= 0, got {nbits}")
            if nbits == 0:
                return
            raise ValueError(f"value must be >= 0, got {value}")
        count = self._bit_count
        accumulator = (self._accumulator
                       | (value & ((1 << nbits) - 1)) << count)
        count += nbits
        if count >= 8:
            buffer = self._buffer
            while count >= 8:
                buffer.append(accumulator & 0xFF)
                accumulator >>= 8
                count -= 8
        self._accumulator = accumulator
        self._bit_count = count

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes; requires the writer to be byte-aligned."""
        if self._bit_count != 0:
            raise BitstreamError("write_bytes requires byte alignment")
        self._buffer.extend(data)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._bit_count:
            self._buffer.append(self._accumulator & 0xFF)
            self._accumulator = 0
            self._bit_count = 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._bit_count

    def getvalue(self) -> bytes:
        """Return the buffered bits, zero-padded to a byte boundary."""
        self.align()
        return bytes(self._buffer)


class BitReader:
    """Reads bits LSB-first from a byte buffer."""

    def __init__(self, data: bytes, start: int = 0) -> None:
        self._data = data
        self._byte_pos = start
        self._accumulator = 0
        self._bit_count = 0

    def read(self, nbits: int) -> int:
        """Consume and return ``nbits`` bits as an unsigned integer."""
        if nbits <= 0:
            if nbits < 0:
                raise ValueError(f"nbits must be >= 0, got {nbits}")
            return 0
        count = self._bit_count
        if count < nbits:
            data = self._data
            pos = self._byte_pos
            while count < nbits:
                if pos >= len(data):
                    self._byte_pos = pos
                    self._bit_count = count
                    raise BitstreamError(
                        f"bitstream exhausted: wanted {nbits} bits, "
                        f"{count} available"
                    )
                self._accumulator |= data[pos] << count
                pos += 1
                count += 8
            self._byte_pos = pos
        accumulator = self._accumulator
        self._accumulator = accumulator >> nbits
        self._bit_count = count - nbits
        return accumulator & ((1 << nbits) - 1)

    def read_prefix(self, table: list[int], width: int) -> int:
        """Decode one prefix code through a ``1 << width`` lookup table.

        ``table`` is indexed by the next ``width`` bits; a nonzero entry
        packs ``value << 4 | length`` and consumes ``length`` bits.
        Returns ``value``, or -1 without consuming anything when fewer
        than ``width`` bits remain or the entry is zero (no code starts
        there), so the caller can fall back to a bit-serial decode.
        """
        count = self._bit_count
        if count < width:
            data = self._data
            pos = self._byte_pos
            accumulator = self._accumulator
            while count < width:
                if pos >= len(data):
                    break
                accumulator |= data[pos] << count
                pos += 1
                count += 8
            self._accumulator = accumulator
            self._byte_pos = pos
            self._bit_count = count
            if count < width:
                return -1
        entry = table[self._accumulator & ((1 << width) - 1)]
        if not entry:
            return -1
        length = entry & 0xF
        self._accumulator >>= length
        self._bit_count = count - length
        return entry >> 4

    def peek(self, nbits: int) -> int:
        """Return up to ``nbits`` bits without consuming them.

        Missing bits past the end of the stream read as zero, which lets
        table-driven Huffman decoders peek a fixed width near the end.
        """
        while self._bit_count < nbits and self._byte_pos < len(self._data):
            self._accumulator |= self._data[self._byte_pos] << self._bit_count
            self._byte_pos += 1
            self._bit_count += 8
        return self._accumulator & ((1 << nbits) - 1)

    def skip(self, nbits: int) -> None:
        """Discard ``nbits`` bits previously observed via :meth:`peek`."""
        if nbits > self._bit_count:
            raise BitstreamError(
                f"cannot skip {nbits} bits, only {self._bit_count} buffered"
            )
        self._accumulator >>= nbits
        self._bit_count -= nbits

    def align(self) -> None:
        """Drop buffered bits up to the next byte boundary."""
        drop = self._bit_count % 8
        self._accumulator >>= drop
        self._bit_count -= drop

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes; requires byte alignment."""
        if self._bit_count % 8 != 0:
            raise BitstreamError("read_bytes requires byte alignment")
        result = bytearray()
        while self._bit_count >= 8 and count > 0:
            result.append(self._accumulator & 0xFF)
            self._accumulator >>= 8
            self._bit_count -= 8
            count -= 1
        if count > 0:
            end = self._byte_pos + count
            if end > len(self._data):
                raise BitstreamError("byte stream exhausted")
            result.extend(self._data[self._byte_pos:end])
            self._byte_pos = end
        return bytes(result)

    @property
    def bits_consumed(self) -> int:
        """Number of bits consumed from the underlying buffer."""
        return self._byte_pos * 8 - self._bit_count
