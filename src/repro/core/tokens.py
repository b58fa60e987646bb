"""LZ77 token-stream representation shared by all compressors.

DPZip (paper §3.2) represents compressed data as literal bytes plus
``<LL, ML, Offset>`` sequences, exactly like Zstd: ``LL`` literals are
copied from the literal buffer, then ``ML`` bytes are copied from
``Offset`` bytes back in the decoded history.  We reuse the same
structure for the software baselines so the entropy stages are
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompressionError, DecompressionError

#: Minimum match length all LZ77 engines in this package honour.
MIN_MATCH = 4


@dataclass(frozen=True)
class Sequence:
    """One ``<literal_length, match_length, offset>`` tuple.

    ``match_length == 0`` is only legal for the terminal sequence that
    flushes trailing literals.
    """

    literal_length: int
    match_length: int
    offset: int

    def __post_init__(self) -> None:
        if self.literal_length < 0:
            raise CompressionError(f"negative literal length: {self}")
        if self.match_length < 0:
            raise CompressionError(f"negative match length: {self}")
        if self.match_length > 0:
            if self.match_length < MIN_MATCH:
                raise CompressionError(
                    f"match shorter than MIN_MATCH={MIN_MATCH}: {self}"
                )
            if self.offset <= 0:
                raise CompressionError(f"match with non-positive offset: {self}")


@dataclass
class TokenStream:
    """Literals buffer plus the sequence list that references it."""

    literals: bytes = b""
    sequences: list[Sequence] = field(default_factory=list)

    @property
    def total_literals(self) -> int:
        return len(self.literals)

    @property
    def total_match_bytes(self) -> int:
        return sum(s.match_length for s in self.sequences)

    @property
    def decoded_size(self) -> int:
        return self.total_literals + self.total_match_bytes

    def validate(self, preset_history: int = 0) -> None:
        """Check internal consistency (literal accounting, offsets).

        ``preset_history`` extends the reachable window backwards for
        preset-dictionary streams (offsets may address dictionary
        content that precedes the block).
        """
        consumed = sum(s.literal_length for s in self.sequences)
        if consumed != len(self.literals):
            raise CompressionError(
                f"sequences consume {consumed} literals, "
                f"buffer holds {len(self.literals)}"
            )
        position = preset_history
        for seq in self.sequences:
            position += seq.literal_length
            if seq.match_length and seq.offset > position:
                raise CompressionError(
                    f"offset {seq.offset} reaches before start at {position}"
                )
            position += seq.match_length


def copy_match(out: bytearray, offset: int, length: int) -> None:
    """Append ``length`` bytes copied from ``offset`` bytes back.

    An overlapping copy (``offset < length``) has LZ77's byte-at-a-time
    result: the last ``offset`` bytes repeat.  The caller checks that
    ``offset`` stays within ``out``.
    """
    src = len(out) - offset
    if offset >= length:
        out += out[src:src + length]
    else:
        out += (out[src:] * (length // offset + 1))[:length]


def reconstruct(stream: TokenStream) -> bytes:
    """Decode a token stream back into the original bytes.

    This is the reference LZ77 decoder: all format-specific decoders are
    tested against it.  Overlapping copies (offset < match length) follow
    the byte-at-a-time semantics of LZ77, which replicate runs.
    """
    out = bytearray()
    lit_pos = 0
    for seq in stream.sequences:
        lit_end = lit_pos + seq.literal_length
        if lit_end > len(stream.literals):
            raise DecompressionError("literal buffer overrun")
        out += stream.literals[lit_pos:lit_end]
        lit_pos = lit_end
        if seq.match_length:
            src = len(out) - seq.offset
            if src < 0:
                raise DecompressionError(
                    f"offset {seq.offset} reaches before output start"
                )
            copy_match(out, seq.offset, seq.match_length)
    if lit_pos != len(stream.literals):
        raise DecompressionError(
            f"{len(stream.literals) - lit_pos} literals left undecoded"
        )
    return bytes(out)
