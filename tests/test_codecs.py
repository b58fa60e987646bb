"""Cross-codec round-trip, ratio-ordering and block-format tests."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import blockformat, get_compressor, huffman
from repro.core.bitio import BitWriter
from repro.core.blockformat import (
    ll_code, ll_extra_bits, ll_value,
    ml_code, ml_extra_bits, ml_value,
    of_code, of_extra_bits, of_value,
    read_varint, write_varint,
)
from repro.core.deflate import DeflateCodec
from repro.core.dpzip_codec import DpzipCodec, reference_roundtrip
from repro.core.lz77 import DpzipLz77Encoder
from repro.core.lz4 import Lz4Codec
from repro.core.matchers import (
    LEVEL_PRESETS,
    ChainMatcher,
    ChainMatcherConfig,
    config_for_level,
)
from repro.core.snappy import SnappyCodec
from repro.core.tokens import reconstruct
from repro.core.zstd import ZstdLikeCodec
from repro.errors import BitstreamError, DecompressionError

CASES = {
    "empty": b"",
    "single": b"Q",
    "short": b"hello world",
    "text": b"in-storage compression accelerator for SSDs " * 100,
    "zeros": bytes(6000),
    "binary": bytes(range(256)) * 20,
    "random": random.Random(11).randbytes(6000),
    "page": (b"key=%d;val=longish-payload;" * 300)[:4096],
}

ALL_CODECS = [
    ("snappy", SnappyCodec()),
    ("lz4", Lz4Codec()),
    ("deflate-1", DeflateCodec(level=1)),
    ("deflate-3", DeflateCodec(level=3)),
    ("deflate-10", DeflateCodec(level=10)),
    ("zstd-1", ZstdLikeCodec(level=1)),
    ("zstd-3", ZstdLikeCodec(level=3)),
    ("dpzip", DpzipCodec()),
]


class TestRoundtrips:
    @pytest.mark.parametrize("name,codec", ALL_CODECS,
                             ids=[n for n, _ in ALL_CODECS])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_roundtrip(self, name, codec, case):
        data = CASES[case]
        compressed = codec.compress(data)
        payload = getattr(compressed, "payload", compressed)
        assert codec.decompress(payload) == data

    def test_dpzip_reference_cross_check(self):
        assert reference_roundtrip(CASES["text"])
        assert reference_roundtrip(CASES["random"])


class TestRatios:
    def test_deflate_beats_lightweight_on_text(self):
        from repro.workloads.corpus import synthetic_text
        text = synthetic_text(16384, seed=42)
        deflate = len(DeflateCodec(1).compress(text))
        snappy = len(SnappyCodec().compress(text))
        lz4 = len(Lz4Codec().compress(text))
        assert deflate < snappy
        assert deflate < lz4

    def test_higher_deflate_level_not_worse(self):
        text = CASES["page"] * 4
        l1 = len(DeflateCodec(1).compress(text))
        l10 = len(DeflateCodec(10).compress(text))
        assert l10 <= l1 * 1.02

    def test_dpzip_close_to_deflate(self):
        """Finding 1: DPZip tracks Deflate with a small penalty."""
        text = CASES["page"]
        deflate_ratio = len(DeflateCodec(1).compress(text)) / len(text)
        dpzip_ratio = DpzipCodec().compress(text).ratio
        assert dpzip_ratio < deflate_ratio + 0.12

    def test_incompressible_bounded_expansion(self):
        data = CASES["random"]
        for _, codec in ALL_CODECS:
            compressed = codec.compress(data)
            payload = getattr(compressed, "payload", compressed)
            assert len(payload) <= len(data) * 1.05 + 64


class TestChainMatcher:
    def test_tokenize_reconstructs(self):
        matcher = ChainMatcher(config_for_level(3))
        data = CASES["text"]
        assert reconstruct(matcher.tokenize(data)) == data

    def test_deeper_level_finds_no_fewer_matches(self):
        data = CASES["page"] * 2
        shallow = ChainMatcher(config_for_level(1))
        deep = ChainMatcher(config_for_level(10))
        shallow.tokenize(data)
        deep.tokenize(data)
        assert deep.stats.matched_bytes >= shallow.stats.matched_bytes * 0.95

    def test_chain_work_grows_with_level(self):
        data = CASES["page"] * 4
        shallow = ChainMatcher(config_for_level(1))
        deep = ChainMatcher(config_for_level(10))
        shallow.tokenize(data)
        deep.tokenize(data)
        assert deep.stats.chain_steps > shallow.stats.chain_steps


class TestLevelPresets:
    """Deflate's format caps must not leak into the shared presets."""

    def test_building_deflate_leaves_presets_unchanged(self):
        before = copy.deepcopy(LEVEL_PRESETS)
        for level in LEVEL_PRESETS:
            DeflateCodec(level=level)
        assert LEVEL_PRESETS == before
        # The declared values themselves, whatever ran earlier.
        assert config_for_level(1).max_match == ChainMatcherConfig().max_match
        assert config_for_level(3).window_log == 16

    def test_zstd_output_independent_of_deflate_construction(self):
        data = b"abcd" * 5000
        first = ZstdLikeCodec(level=1).compress_blocks(data)
        DeflateCodec(level=1)
        DeflateCodec(level=3)
        second = ZstdLikeCodec(level=1).compress_blocks(data)
        assert second.payload == first.payload
        assert second.matcher_stats == first.matcher_stats
        assert second.breakdown == first.breakdown
        # One match covers the whole repeat, uncapped at deflate's 258.
        assert first.matcher_stats["matches"] == 1
        assert first.matcher_stats["matched_bytes"] == len(data) - 4


def _de_bruijn(alphabet: bytes, order: int) -> bytes:
    """Every ``order``-gram over ``alphabet`` exactly once (cyclic)."""
    k = len(alphabet)
    a = [0] * k * order
    out: list[int] = []

    def db(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                out.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return bytes(alphabet[i] for i in out)


class TestDecodeEdges:
    """Table-driven Huffman decode keeps every frame's exact behaviour."""

    def test_truncated_deflate_frame_raises_bitstream_error(self):
        data = CASES["text"] + CASES["random"][:500]
        payload = DeflateCodec(level=1).compress(data)
        for cut in (1, 2, 7, len(payload) // 2, len(payload) - 8):
            with pytest.raises(BitstreamError):
                DeflateCodec(level=1).decompress(payload[:-cut])

    def test_truncated_dpzip_literals_raise_bitstream_error(self):
        page = bytes(random.Random(3).choices(b"etaoin shrdlu", k=4096))
        frame, stats = blockformat.encode_frame(
            page, DpzipLz77Encoder().encode(page))
        assert stats.literal_mode == "huffman"
        # Cut the Huffman literal payload short and re-frame it.
        pos = 1
        _, pos = read_varint(frame, pos)
        _, pos = read_varint(frame, pos)
        assert frame[pos] == 1  # Huffman literal mode
        enc_len, body = read_varint(frame, pos + 1)
        for cut in (1, 3, enc_len // 2):
            out = bytearray(frame[:pos + 1])
            write_varint(out, enc_len - cut)
            out += frame[body:body + enc_len - cut]
            out += frame[body + enc_len:]
            with pytest.raises(BitstreamError):
                blockformat.decode_frame(bytes(out))

    def test_invalid_deflate_code_raises_decompression_error(self):
        # A hand-built frame whose literal/length code is incomplete:
        # "a" is 0 and end-of-block is 10, so 11 starts no code.
        lengths = [0] * 286
        lengths[ord("a")] = 1
        lengths[256] = 2
        for tail_bytes, error in ((1, DecompressionError),
                                  (0, BitstreamError)):
            writer = BitWriter()
            writer.write(1, 8)  # dynamic mode
            writer.write(2, 32)
            huffman.serialize_lengths(lengths, writer)
            huffman.serialize_lengths([0] * 30, writer)
            writer.write(0, 1)  # "a"
            writer.write(0b11, 2)
            writer.align()  # 7 bits of "11" and padding before the tail
            payload = writer.getvalue() + b"\xff" * tail_bytes
            with pytest.raises(error) as caught:
                DeflateCodec(level=1).decompress(payload)
            if error is DecompressionError:
                assert not isinstance(caught.value, BitstreamError)
                assert "invalid Huffman code" in str(caught.value)

    def test_deflate_without_matches_has_empty_distance_table(self):
        data = _de_bruijn(b"ACGTNX", 4)
        codec = DeflateCodec(level=1)
        payload = codec.compress(data)
        assert codec.last_stats.dist_symbols == 0
        assert codec.last_stats.table_builds == 1
        assert len(payload) < len(data)  # Huffman-coded, not raw
        assert codec.decompress(payload) == data

    def test_single_literal_symbol_round_trips(self):
        data = b"\x07" * 3  # too short for a match: one literal symbol
        for codec in (DeflateCodec(level=1), DpzipCodec()):
            compressed = codec.compress(data)
            payload = getattr(compressed, "payload", compressed)
            assert codec.decompress(payload) == data


class TestBlockFormat:
    def test_varint_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 1 << 20, (1 << 40) + 3):
            out = bytearray()
            write_varint(out, value)
            parsed, pos = read_varint(bytes(out), 0)
            assert parsed == value and pos == len(out)

    def test_ll_code_roundtrip(self):
        for v in list(range(40)) + [100, 1000, 65535, 100000]:
            code, extra, bits = ll_code(v)
            assert bits == ll_extra_bits(code)
            assert ll_value(code, extra) == v

    def test_ml_code_roundtrip(self):
        for v in list(range(4, 60)) + [258, 1000, 65535]:
            code, extra, bits = ml_code(v)
            assert bits == ml_extra_bits(code)
            assert ml_value(code, extra) == v

    def test_of_code_roundtrip(self):
        for v in [1, 2, 3, 7, 8, 255, 4096, 65535, 131071]:
            code, extra, bits = of_code(v)
            assert bits == of_extra_bits(code)
            assert of_value(code, extra) == v

    def test_truncated_frame_rejected(self):
        codec = DpzipCodec()
        data = CASES["text"]
        payload = codec.compress(data).payload
        # Truncation either raises or yields something other than the
        # original (a cut may fall exactly on a page-frame boundary).
        try:
            out = codec.decompress(payload[:len(payload) // 2])
        except DecompressionError:
            return
        assert out != data

    def test_corrupt_frame_mode_rejected(self):
        with pytest.raises(DecompressionError):
            blockformat.decode_frame(b"\x07abc")

    def test_raw_fallback_flag(self):
        from repro.core.lz77 import DpzipLz77Encoder
        data = random.Random(1).randbytes(4096)
        tokens = DpzipLz77Encoder().encode(data)
        frame, stats = blockformat.encode_frame(data, tokens)
        assert stats.raw_fallback
        assert blockformat.decode_frame(frame) == data


class TestRegistry:
    def test_all_names_resolve(self):
        from repro.core import algorithm_names
        for name in algorithm_names():
            adapter = get_compressor(name)
            outcome = adapter.compress(b"test data " * 50)
            assert adapter.decompress(outcome.payload) == b"test data " * 50

    def test_unknown_name_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            get_compressor("brotli")

    def test_outcome_ratio(self):
        outcome = get_compressor("deflate", level=1).compress(
            b"aaaa" * 1000
        )
        assert outcome.ratio < 0.1


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=4096))
def test_deflate_roundtrip_property(data):
    codec = DeflateCodec(1)
    assert codec.decompress(codec.compress(data)) == data


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=4096))
def test_lz4_snappy_roundtrip_property(data):
    assert Lz4Codec().decompress(Lz4Codec().compress(data)) == data
    assert SnappyCodec().decompress(SnappyCodec().compress(data)) == data


@settings(max_examples=20, deadline=None)
@given(st.binary(max_size=10000))
def test_dpzip_multi_page_roundtrip_property(data):
    codec = DpzipCodec()
    result = codec.compress(data)
    assert codec.decompress(result.payload) == data
    assert len(result.page_sizes) == max(1, -(-len(data) // 4096))
