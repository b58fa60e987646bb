"""Workload-generator tests: entropy control, corpus, YCSB, zipf, FIO."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deflate import DeflateCodec
from repro.core.entropy import entropy_limit_ratio, match_potential, shannon_entropy
from repro.errors import WorkloadError
from repro.workloads import (
    FioJob,
    IoPattern,
    OpType,
    ScrambledZipfian,
    YcsbWorkload,
    ZipfianGenerator,
    build_corpus,
    corpus_chunks,
    entropy_bytes,
    make_value,
    mixed_block,
    random_bytes,
    ratio_controlled_bytes,
)


class TestEntropyTools:
    def test_constant_data_zero_entropy(self):
        assert shannon_entropy(b"a" * 1000) == 0.0

    def test_uniform_random_near_8_bits(self):
        assert shannon_entropy(random_bytes(65536, seed=1)) > 7.9

    def test_entropy_limit_ratio(self):
        assert entropy_limit_ratio(b"a" * 100) == 0.0
        assert entropy_limit_ratio(random_bytes(65536, 2)) > 0.98

    def test_match_potential_orders_data(self):
        redundant = b"abcdefgh" * 512
        noise = random_bytes(4096, 3)
        assert match_potential(redundant) > match_potential(noise)


class TestEntropyBytes:
    @pytest.mark.parametrize("target", [1.0, 2.0, 4.0, 6.0, 7.0])
    def test_entropy_hits_target(self, target):
        data = entropy_bytes(200_000, target, seed=5)
        assert abs(shannon_entropy(data) - target) < 0.35

    def test_extremes(self):
        assert shannon_entropy(entropy_bytes(10000, 0.0, 1)) == 0.0
        assert shannon_entropy(entropy_bytes(10000, 8.0, 1)) > 7.5

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            entropy_bytes(100, 9.0)


class TestRatioControl:
    def test_monotone_compressibility(self):
        """Higher targets must compress worse (Deflate as the probe)."""
        codec = DeflateCodec(1)
        achieved = []
        for target in (0.0, 0.25, 0.5, 0.75, 1.0):
            data = ratio_controlled_bytes(16384, target, seed=17)
            achieved.append(len(codec.compress(data)) / len(data))
        assert achieved == sorted(achieved)
        assert achieved[0] < 0.35
        assert achieved[-1] > 0.95

    def test_deterministic_by_seed(self):
        a = ratio_controlled_bytes(4096, 0.5, seed=9)
        b = ratio_controlled_bytes(4096, 0.5, seed=9)
        assert a == b

    def test_length_exact(self):
        assert len(ratio_controlled_bytes(5000, 0.4, 1)) == 5000

    def test_bad_target_rejected(self):
        with pytest.raises(WorkloadError):
            ratio_controlled_bytes(100, 1.5)

    def test_mixed_block_redundancy_axis(self):
        codec = DeflateCodec(1)
        low = mixed_block(8192, 7.0, redundancy=0.0, seed=2)
        high = mixed_block(8192, 7.0, redundancy=0.9, seed=2)
        assert (len(codec.compress(high))
                < len(codec.compress(low)))


class TestCorpus:
    def test_twelve_members(self):
        corpus = build_corpus(member_size=8 * 1024)
        assert len(corpus) == 12
        assert {m.name for m in corpus} >= {"dickens", "xml", "sao", "x-ray"}

    def test_member_sizes(self):
        corpus = build_corpus(member_size=16 * 1024)
        assert all(m.size == 16 * 1024 for m in corpus)

    def test_compressibility_spectrum(self):
        """xml compresses far better than sao (near-incompressible)."""
        corpus = {m.name: m.data for m in build_corpus(member_size=16 * 1024)}
        codec = DeflateCodec(1)
        xml_ratio = len(codec.compress(corpus["xml"])) / (16 * 1024)
        sao_ratio = len(codec.compress(corpus["sao"])) / (16 * 1024)
        assert xml_ratio < 0.25
        assert sao_ratio > 0.85

    def test_chunking(self):
        corpus = build_corpus(member_size=16 * 1024)
        chunks = corpus_chunks(corpus, 4096)
        assert len(chunks) == 12 * 4
        assert all(len(c) == 4096 for c in chunks)

    def test_deterministic(self):
        a = build_corpus(member_size=8 * 1024, seed=3)
        b = build_corpus(member_size=8 * 1024, seed=3)
        assert all(x.data == y.data for x, y in zip(a, b))


class TestZipf:
    def test_range(self):
        gen = ZipfianGenerator(1000, seed=1)
        for _ in range(500):
            assert 0 <= gen.next() < 1000

    def test_skew(self):
        gen = ZipfianGenerator(1000, seed=2)
        samples = [gen.next() for _ in range(5000)]
        head = sum(1 for s in samples if s < 100)
        assert head > len(samples) * 0.5

    def test_scrambled_spreads_hot_keys(self):
        gen = ScrambledZipfian(1000, seed=3)
        samples = [gen.next() for _ in range(5000)]
        head = sum(1 for s in samples if s < 100)
        assert head < len(samples) * 0.4

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0)

    @pytest.mark.parametrize("items, theta", [
        (1, 0.99), (2, 0.5), (1000, 0.99), (8192, 0.99), (8192, 0.8)])
    def test_memoized_zeta_equals_the_plain_sum(self, items, theta):
        plain = sum(1.0 / (i ** theta) for i in range(1, items + 1))
        first = ZipfianGenerator(items, theta, seed=1)
        second = ScrambledZipfian(items, theta, seed=2)._zipf
        assert first._zeta == second._zeta == plain
        assert ZipfianGenerator._compute_zeta(2, theta) == \
            1.0 + 1.0 / 2 ** theta


class TestYcsb:
    def test_workload_a_mix(self):
        workload = YcsbWorkload("A", 100, seed=5)
        ops = list(workload.operations(2000))
        reads = sum(1 for op in ops if op.op is OpType.READ)
        assert 0.45 <= reads / len(ops) <= 0.55

    def test_workload_f_has_rmw(self):
        workload = YcsbWorkload("F", 100, seed=5)
        ops = list(workload.operations(1000))
        assert any(op.op is OpType.READ_MODIFY_WRITE for op in ops)

    def test_workload_c_read_only(self):
        workload = YcsbWorkload("C", 100, seed=5)
        assert all(op.op is OpType.READ
                   for op in workload.operations(500))

    def test_inserts_extend_keyspace(self):
        workload = YcsbWorkload("D", 100, seed=5)
        inserts = [op.key for op in workload.operations(2000)
                   if op.op is OpType.INSERT]
        assert inserts and min(inserts) >= 100

    def test_unknown_letter_rejected(self):
        with pytest.raises(WorkloadError):
            YcsbWorkload("Z", 10)

    def test_value_compressibility_band(self):
        """Values must land in the realistic Deflate ~35-60% band."""
        codec = DeflateCodec(1)
        blob = b"".join(make_value(k, 1000) for k in range(32))
        ratio = len(codec.compress(blob)) / len(blob)
        assert 0.25 <= ratio <= 0.65

    def test_value_deterministic(self):
        assert make_value(5, 300) == make_value(5, 300)
        assert make_value(5, 300) != make_value(6, 300)


class TestFio:
    def test_sequential_offsets(self):
        job = FioJob(IoPattern.SEQ_READ, 4096, 64 * 1024, seed=1)
        reqs = list(job.requests(4))
        assert [r.offset for r in reqs] == [0, 4096, 8192, 12288]

    def test_random_writes_have_payloads(self):
        job = FioJob(IoPattern.RAND_WRITE, 4096, 64 * 1024, seed=2)
        for req in job.requests(8):
            assert req.is_write
            assert len(req.payload) == 4096

    def test_reads_have_no_payload(self):
        job = FioJob(IoPattern.RAND_READ, 4096, 64 * 1024, seed=3)
        assert all(r.payload is None for r in job.requests(5))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(WorkloadError):
            FioJob(IoPattern.SEQ_READ, 4096, 1024)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 999))
def test_zipf_always_in_range_property(seed, items):
    gen = ZipfianGenerator(items, seed=seed)
    for _ in range(50):
        assert 0 <= gen.next() < items
