"""Block-store tests: cache, block map, mixed streams, GET/PUT serving.

Unit scenarios run on stub devices with synthetic per-op cost models
(deterministic, wall-clock free); one integration class calibrates the
real mixed fleet and checks the tier's acceptance behaviour — cache
hits cut read tail latency, and decompress traffic lands on a
different placement mix than compress traffic.
"""

import pytest

from service_stubs import StubDevice, flat_model, parts_cluster
from repro.cluster import Cluster, default_cluster_spec
from repro.errors import StoreError, WorkloadError
from repro.hw.engine import Placement
from repro.service import (
    AdmissionController,
    FleetDevice,
    SchedulerCore,
    SloClass,
)
from repro.sim.engine import Simulator
from repro.store import BlockCache, BlockMap, CompressedBlockStore
from repro.workloads import MixedStream, StoreOp


def op_models(read_per_byte=0.01, write_per_byte=0.02):
    return {"decompress": flat_model(read_per_byte),
            "compress": flat_model(write_per_byte)}


def make_store(sim, cache_blocks=4, read_per_byte=0.01, write_per_byte=0.02,
               admission=None, **store_kwargs):
    fleet = [FleetDevice(sim, StubDevice(),
                         op_models(read_per_byte, write_per_byte))]
    service = SchedulerCore(sim, fleet, policy="cost-model",
                            admission=admission)
    store_kwargs.setdefault("block_bytes", 1000)
    store_kwargs.setdefault("hit_overhead_ns", 100.0)
    store_kwargs.setdefault("hit_per_byte_ns", 0.0)
    store_kwargs.setdefault("media_overhead_ns", 0.0)
    store_kwargs.setdefault("media_per_byte_ns", 0.0)
    return CompressedBlockStore(sim, service, BlockCache(cache_blocks),
                                **store_kwargs)


class TestBlockCache:
    def test_lru_eviction_order(self):
        cache = BlockCache(2)
        cache.insert("a")
        cache.insert("b")
        assert cache.lookup("a")     # promotes a over b
        cache.insert("c")            # evicts b
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_ghost_list_counts_capacity_misses(self):
        cache = BlockCache(1)
        cache.insert("a")
        cache.insert("b")            # evicts a onto the ghost list
        assert not cache.lookup("a")
        assert cache.ghost_hits == 1
        assert cache.ghost_hit_rate == 1.0

    def test_reinsert_clears_ghost_entry(self):
        cache = BlockCache(1)
        cache.insert("a")
        cache.insert("b")            # a -> ghost
        cache.insert("a")            # b -> ghost, a resident again
        assert not cache.lookup("b") and cache.ghost_hits == 1
        cache.insert("b")            # a -> ghost once more
        assert not cache.lookup("a")
        assert cache.ghost_hits == 2

    def test_zero_capacity_disables_caching(self):
        cache = BlockCache(0)
        cache.insert("a")
        assert len(cache) == 0
        assert not cache.lookup("a")
        assert cache.hit_rate == 0.0

    def test_invalidate_drops_without_ghosting(self):
        cache = BlockCache(2)
        cache.insert("a")
        cache.invalidate("a")
        assert not cache.lookup("a")
        assert cache.ghost_hits == 0

    def test_stats_and_validation(self):
        with pytest.raises(StoreError):
            BlockCache(-1)
        with pytest.raises(StoreError):
            BlockCache(2, ghost_blocks=-1)
        cache = BlockCache(2)
        cache.insert("a")
        cache.lookup("a")
        cache.lookup("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestBlockMap:
    def test_packs_into_segments(self):
        bmap = BlockMap(segment_bytes=100)
        first = bmap.store(1, 60)
        second = bmap.store(2, 60)   # does not fit -> new segment
        assert (first.segment, first.offset) == (0, 0)
        assert (second.segment, second.offset) == (1, 0)
        assert bmap.segments == 2
        assert bmap.physical_bytes == 200
        assert bmap.live_bytes == 120

    def test_overwrite_leaves_garbage(self):
        bmap = BlockMap(segment_bytes=100)
        bmap.store(1, 40)
        bmap.store(1, 30)
        assert bmap.live_bytes == 30
        assert bmap.garbage_bytes == 40
        assert bmap.lookup(1).length == 30
        assert len(bmap) == 1

    def test_lookup_unmapped_rejected(self):
        bmap = BlockMap()
        with pytest.raises(StoreError):
            bmap.lookup(7)
        assert 7 not in bmap

    def test_size_bounds_enforced(self):
        bmap = BlockMap(segment_bytes=100)
        with pytest.raises(StoreError):
            bmap.store(1, 0)
        with pytest.raises(StoreError):
            bmap.store(1, 101)
        with pytest.raises(StoreError):
            BlockMap(segment_bytes=0)

    def test_space_accounting(self):
        bmap = BlockMap(segment_bytes=100)
        bmap.store(1, 50)
        bmap.store(2, 25)
        assert bmap.utilization == pytest.approx(0.75)
        assert bmap.compression_ratio(100) == pytest.approx(0.375)


class TestMixedStream:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            MixedStream(offered_gbps=0, duration_ns=1e6)
        with pytest.raises(WorkloadError):
            MixedStream(offered_gbps=1, duration_ns=1e6, read_fraction=1.5)
        with pytest.raises(WorkloadError):
            MixedStream(offered_gbps=1, duration_ns=1e6, blocks=0)
        with pytest.raises(WorkloadError):
            StoreOp(kind="scan", block=0, tenant=0)

    def _ops(self, stream, count=200):
        rng, keys = stream.rng(), stream.key_generator()
        return [stream.make_op(rng, keys) for _ in range(count)]

    def test_deterministic_given_seed(self):
        stream = MixedStream(offered_gbps=4.0, duration_ns=1e6, seed=9)
        assert self._ops(stream) == self._ops(stream)

    def test_read_fraction_respected(self):
        stream = MixedStream(offered_gbps=4.0, duration_ns=1e6,
                             read_fraction=0.9, seed=9)
        ops = self._ops(stream, count=500)
        reads = sum(1 for op in ops if op.kind == "read")
        assert 0.85 <= reads / len(ops) <= 0.95

    def test_zipf_keys_reuse_hot_blocks(self):
        stream = MixedStream(offered_gbps=4.0, duration_ns=1e6,
                             blocks=1000, seed=9)
        ops = self._ops(stream, count=300)
        blocks = [op.block for op in ops]
        assert all(0 <= b < 1000 for b in blocks)
        # Zipfian skew: far fewer distinct keys than draws.
        assert len(set(blocks)) < 0.8 * len(blocks)

    def test_pure_read_and_pure_write_mixes(self):
        for fraction, kind in ((0.0, "write"), (1.0, "read")):
            stream = MixedStream(offered_gbps=4.0, duration_ns=1e6,
                                 read_fraction=fraction, seed=9)
            assert all(op.kind == kind for op in self._ops(stream, 50))


class TestStoreServing:
    def test_put_updates_map_and_cache(self):
        sim = Simulator()
        store = make_store(sim)
        assert store.put(block=3, tenant=0, ratio=0.5) == "admitted"
        sim.run()
        assert store.blockmap.lookup(3).length == 500
        assert 3 in store.cache
        assert store.metrics.write_latency.count == 1
        # compress path: 0.02 ns/B * 1000 B on an idle device
        assert store.metrics.write_latency.samples[0] == pytest.approx(20.0)

    def test_get_hit_is_a_dram_copy(self):
        sim = Simulator()
        store = make_store(sim)
        store.put(block=1, tenant=0, ratio=0.5)
        sim.run()
        assert store.get(block=1, tenant=0) == "hit"
        sim.run()
        assert store.metrics.hit_latency.samples == [100.0]
        # The fleet never saw a decompress request.
        assert store.scheduler.metrics.offered == 1

    def test_get_miss_decompresses_through_fleet(self):
        sim = Simulator()
        store = make_store(sim, cache_blocks=4)
        store.blockmap.store(5, 400)
        assert store.get(block=5, tenant=0) == "miss"
        sim.run()
        # decompress priced by the read model: 0.01 ns/B * 1000 B.
        assert store.metrics.miss_latency.samples == [pytest.approx(10.0)]
        ops = {row["op"] for row in store.scheduler.report().op_breakdown}
        assert ops == {"decompress"}
        # The block is now cached; the next read hits.
        assert store.get(block=5, tenant=0) == "hit"

    def test_concurrent_misses_coalesce(self):
        sim = Simulator()
        store = make_store(sim, read_per_byte=1.0)  # slow decompress
        store.blockmap.store(2, 500)
        assert store.get(block=2, tenant=0) == "miss"
        assert store.get(block=2, tenant=1) == "coalesced"
        sim.run()
        assert store.metrics.coalesced_reads == 1
        assert store.metrics.read_latency.count == 2
        # Only one decompress went to the fleet for both readers.
        assert store.scheduler.metrics.offered == 1

    def test_get_unmapped_block_rejected(self):
        sim = Simulator()
        store = make_store(sim)
        with pytest.raises(StoreError):
            store.get(block=99, tenant=0)

    def test_shed_reads_and_writes_counted_as_failures(self):
        sim = Simulator()
        store = make_store(sim, admission=AdmissionController(
            spill_threshold=0.0, shed_threshold=0.0))
        store.blockmap.store(1, 500)
        assert store.put(block=2, tenant=0, ratio=0.5) == "shed"
        store.get(block=1, tenant=0)
        sim.run()
        assert store.metrics.failed_writes == 1
        assert store.metrics.failed_reads == 1
        assert store.metrics.read_latency.count == 0

    def test_load_populates_every_block(self):
        sim = Simulator()
        store = make_store(sim)
        store.load(10, ratio_range=(0.4, 0.6), seed=3)
        assert len(store.blockmap) == 10
        for block in range(10):
            assert 400 <= store.blockmap.lookup(block).length <= 600


class TestRunBlockStore:
    def _fleet(self):
        return [
            (StubDevice(name="fast", placement=Placement.IN_STORAGE,
                        engines=2), op_models(0.01, 0.02)),
            (StubDevice(name="slow", placement=Placement.PERIPHERAL),
             op_models(0.1, 0.2)),
        ]

    def _stream(self, seed=42, **kwargs):
        kwargs.setdefault("offered_gbps", 2.0)
        kwargs.setdefault("duration_ns", 1e6)
        kwargs.setdefault("blocks", 64)
        kwargs.setdefault("block_bytes", 4096)
        return MixedStream(seed=seed, **kwargs)

    def _run(self):
        stream = self._stream()
        cluster = parts_cluster(self._fleet(), cache_blocks=16,
                                block_bytes=stream.block_bytes)
        cluster.store_client(stream)
        return cluster.run().store

    def test_deterministic_given_seed(self):
        first = self._run()
        second = self._run()
        assert first.reads == second.reads
        assert first.hit_rate == second.hit_rate
        assert first.read_p99_us == second.read_p99_us
        assert first.live_bytes == second.live_bytes

    def test_report_accounts_for_every_operation(self):
        report = self._run()
        assert report.reads + report.writes > 0
        assert report.failed_reads == report.failed_writes == 0
        assert report.hit_rate > 0.0
        assert report.service is not None
        # Fleet traffic = every write + every non-coalesced cache miss.
        cache_hits = round(report.hit_rate * report.reads)
        expected = report.writes + (report.reads - cache_hits
                                    - report.coalesced_reads)
        assert report.service.offered == expected
        # Backlog drained: everything offered to the fleet completed.
        assert report.service.completed == report.service.offered

    def test_run_builds_the_service_report_once(self, monkeypatch):
        built = []
        report = SchedulerCore.report

        def counted(self, *args, **kwargs):
            built.append(self)
            return report(self, *args, **kwargs)

        monkeypatch.setattr(SchedulerCore, "report", counted)
        stream = self._stream()
        cluster = parts_cluster(self._fleet(), cache_blocks=16,
                                block_bytes=stream.block_bytes)
        cluster.store_client(stream)
        result = cluster.run()
        assert len(built) == 1
        assert result.service is result.store.service

    def test_row_is_flat_and_table_ready(self):
        report = self._run()
        row = report.row()
        assert {"policy", "read_gbps", "hit_rate", "read_p99_us"} <= set(row)
        assert all(not isinstance(v, (list, dict)) for v in row.values())


class TestStoreSloClasses:
    def test_reads_and_writes_carry_distinct_slo_classes(self):
        sim = Simulator()
        store = make_store(sim, cache_blocks=0)
        store.load(4)
        store.put(0, tenant=0, ratio=0.5)
        store.get(1, tenant=0)
        sim.run()
        report = store.report()
        assert report.read_slo == "interactive"
        assert report.write_slo == "throughput"
        assert report.service is not None
        classes = {row["slo"] for row in report.service.slo_breakdown}
        assert classes == {"interactive", "throughput"}

    def test_custom_slo_classes_override_defaults(self):
        sim = Simulator()
        gold = SloClass("gold", tier=0, deadline_ns=1e9)
        bulk = SloClass("bulk", tier=3, deadline_ns=1e9)
        store = make_store(sim, cache_blocks=0, read_slo=gold,
                           write_slo=bulk)
        store.load(4)
        store.put(0, tenant=0, ratio=0.5)
        store.get(1, tenant=0)
        sim.run()
        report = store.report()
        assert report.read_slo == "gold"
        assert report.write_slo == "bulk"
        assert report.read_miss_rate == 0.0
        assert report.write_miss_rate == 0.0

    def test_foreground_reads_overtake_queued_background_writes(self):
        # One serial device, SLO-aware scheduling: a GET arriving after
        # two parked PUTs still decompresses first, because foreground
        # reads outrank background packing in the pending queue.
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(), op_models(0.5, 0.5),
                             queue_limit=1, batch_size=1)]
        service = SchedulerCore(sim, fleet, policy="deadline")
        store = CompressedBlockStore(
            sim, service, BlockCache(0), block_bytes=1000,
            hit_overhead_ns=100.0, hit_per_byte_ns=0.0,
            media_overhead_ns=0.0, media_per_byte_ns=0.0)
        store.load(8)
        store.put(0, tenant=0, ratio=0.5)        # occupies the device
        store.put(1, tenant=0, ratio=0.5)        # parked, tier 1
        store.put(2, tenant=0, ratio=0.5)        # parked, tier 1
        assert store.get(3, tenant=0) == "miss"  # tier 0
        sim.run()
        assert store.metrics.failed_reads == 0
        read_latency = store.metrics.miss_latency.samples[0]
        write_latencies = sorted(store.metrics.write_latency.samples)
        # Only the already-in-flight write finished ahead of the read;
        # both parked writes completed after it.
        assert read_latency < write_latencies[-1]
        assert read_latency < write_latencies[-2]
        assert read_latency > write_latencies[0]


class TestMixedFleetIntegration:
    """Calibrated real devices — the store tier's acceptance checks."""

    def _stream(self, read_fraction=0.8):
        return MixedStream(offered_gbps=36.0, duration_ns=2e6,
                           read_fraction=read_fraction, blocks=512,
                           block_bytes=65536, tenants=4, seed=11)

    def _run(self, cache_blocks):
        # The calibrated default fleet (both ops), no spill reserve, no
        # admission control, a 64 KiB-block store tier.
        spec = default_cluster_spec(spill=False, store=True).with_overrides(
            {"admission": None, "store.cache_blocks": cache_blocks})
        cluster = Cluster.from_spec(spec)
        cluster.store_client(self._stream())
        return cluster.run().store

    def test_cache_hits_reduce_read_tail_latency(self):
        uncached = self._run(cache_blocks=0)
        cached = self._run(cache_blocks=256)
        assert cached.hit_rate > 0.5
        assert cached.read_p50_us < 0.5 * uncached.read_p50_us
        assert cached.read_p99_us < 0.8 * uncached.read_p99_us

    def test_decompress_traffic_shifts_placement(self):
        from repro.experiments.store_scaling import placement_shift
        report = self._run(cache_blocks=64)
        assert report.service is not None
        decomp = report.service.placement_shares("decompress")
        comp = report.service.placement_shares("compress")
        assert decomp and comp
        assert placement_shift(report) > 0.05

    def test_store_scaling_quick_experiment(self):
        from repro.experiments.store_scaling import run_sweep
        result = run_sweep(read_fractions=(0.8,), cache_blocks=(0, 256),
                           policies=("cost-model",), duration_ns=2e6)
        uncached = result.value("read_p99_us", cache_blocks=0)
        cached = result.value("read_p99_us", cache_blocks=256)
        assert cached < uncached
        assert result.value("hit_rate", cache_blocks=256) > 0.5
