"""Byte-identity guard for the functional codecs and the calibrated models.

Every codec runs over a fixed generated corpus, and each run is reduced
to one digest of its payload, its decoded bytes and every work counter
it reports: ``MatcherStats`` (inside ``DeflateStats`` and Zstd's
``matcher_stats``), Zstd's stage ``breakdown`` and per-block
``BlockStats``, DPZip's per-page ``EncoderStats`` / ``BlockStats``, its
``DecoderStats`` and the bounded hash table's ``HashTableStats``, and the
LZ4 / Snappy search counters.  The counters are not diagnostics: the
device models price them into engine time, and calibration fits the
serving layer's cost models from those times.  A speed-up of a codec
inner loop that changes one byte or one count is a changed simulation.

The same file pins the calibrated :class:`DeviceCostModel` of every
device in the default store fleet, spill device included.

The digests live in ``tests/golden/codec_golden.json``.  Regenerating
them is a semantic change to the codecs and must be explained with the
change that needs it::

    PYTHONPATH=src python tests/test_codec_golden.py --regenerate
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster import build_device, default_cluster_spec
from repro.core.deflate import DeflateCodec
from repro.core.dpzip_codec import DpzipCodec
from repro.core.lz4 import Lz4Codec
from repro.core.lz77 import DPZIP_PAGE_BYTES, DpzipLz77Encoder
from repro.core.snappy import SnappyCodec
from repro.core.zstd import ZstdLikeCodec
from repro.service.model import DeviceCostModel
from repro.workloads.corpus import build_corpus
from repro.workloads.datagen import ratio_controlled_bytes

GOLDEN_PATH = Path(__file__).parent / "golden" / "codec_golden.json"

SIZES = (2048, 4096, 8192, 16384)
#: Target ratios with their seeds.  The first two are the default
#: calibration samples (``DeviceCostModel.calibrate``: seed 17 + index).
RATIO_SEEDS = ((0.35, 17), (1.0, 18), (0.2, 19), (0.6, 20))
CORPUS_MEMBER_BYTES = 16 * 1024


def golden_inputs() -> dict[str, bytes]:
    """The fixed corpus: ratio-controlled samples and corpus members."""
    inputs = {}
    for size in SIZES:
        for ratio, seed in RATIO_SEEDS:
            inputs[f"ratio{ratio}-{size}"] = ratio_controlled_bytes(
                size, ratio, seed=seed)
    for member in build_corpus(member_size=CORPUS_MEMBER_BYTES):
        inputs[f"corpus-{member.name}"] = member.data
    return inputs


def _plain(value):
    """Dataclasses, bytes and containers as JSON-ready values."""
    if dataclasses.is_dataclass(value):
        return {field.name: _plain(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, (bytes, bytearray)):
        return hashlib.sha256(value).hexdigest()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _digest(record) -> str:
    text = json.dumps(_plain(record), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _deflate(level):
    def run(data):
        codec = DeflateCodec(level=level)
        payload = codec.compress(data)
        return {"payload": payload, "decoded": codec.decompress(payload),
                "stats": codec.last_stats}
    return run


def _zstd(level):
    def run(data):
        codec = ZstdLikeCodec(level=level)
        result = codec.compress_blocks(data)
        return {"result": result, "decoded": codec.decompress(result.payload)}
    return run


def _dpzip(data):
    codec = DpzipCodec()
    result = codec.compress(data)
    decoded, decoder_stats = codec.decompress_with_stats(result.payload)
    return {"result": result, "decoded": decoded, "decoder": decoder_stats}


def _dpzip_lz77(data):
    """The hardware LZ77 pass page by page, with its hash-table counters."""
    encoder = DpzipLz77Encoder()
    pages = []
    for offset in range(0, len(data), DPZIP_PAGE_BYTES):
        tokens = encoder.encode(data[offset:offset + DPZIP_PAGE_BYTES])
        pages.append({"tokens": tokens, "table": encoder.table.stats})
    return {"pages": pages, "stats": encoder.stats}


def _lz_family(factory):
    def run(data):
        codec = factory()
        payload = codec.compress(data)
        return {"payload": payload, "decoded": codec.decompress(payload),
                "stats": codec.stats}
    return run


CODECS = {
    "deflate-1": _deflate(1),
    "deflate-3": _deflate(3),
    "dpzip": _dpzip,
    "dpzip-lz77": _dpzip_lz77,
    "zstd-1": _zstd(1),
    "zstd-3": _zstd(3),
    "lz4": _lz_family(Lz4Codec),
    "snappy": _lz_family(SnappyCodec),
}


def codec_digests(name: str, inputs: dict[str, bytes]) -> dict[str, str]:
    run = CODECS[name]
    digests = {}
    for key, data in inputs.items():
        record = run(data)
        if "decoded" in record:
            assert record["decoded"] == data, f"{name} on {key}"
        digests[key] = _digest(record)
    return digests


def _store_fleet():
    fleet = default_cluster_spec(store=True).fleet
    return [*fleet.devices, fleet.spill], fleet.ops


def model_digests() -> dict[str, str]:
    """One digest per default store-fleet device over its per-op models."""
    device_specs, ops = _store_fleet()
    digests = {}
    for spec in device_specs:
        device = build_device(spec)
        models = DeviceCostModel.calibrate(device, ops=ops)
        digests[device.name] = _digest({
            op: {"anchors": model.anchors,
                 "submit_ns": model.submit_ns,
                 "pre": (model.pre_overhead_ns, model.pre_per_byte_ns),
                 "post": (model.post_overhead_ns, model.post_per_byte_ns)}
            for op, model in models.items()})
    return digests


def compute_golden() -> dict[str, dict[str, str]]:
    inputs = golden_inputs()
    golden = {name: codec_digests(name, inputs) for name in CODECS}
    golden["models"] = model_digests()
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def inputs():
    return golden_inputs()


@pytest.mark.parametrize("name", sorted(CODECS))
def test_codec_outputs_and_counters_match_golden(name, golden, inputs):
    actual = codec_digests(name, inputs)
    drifted = sorted(key for key in golden[name]
                     if actual.get(key) != golden[name][key])
    assert actual.keys() == golden[name].keys()
    assert not drifted, f"{name} drifted on {drifted}"


def test_calibrated_models_match_golden(golden):
    actual = model_digests()
    drifted = sorted(name for name in golden["models"]
                     if actual.get(name) != golden["models"][name])
    assert actual.keys() == golden["models"].keys()
    assert not drifted, f"calibrated models drifted for {drifted}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
