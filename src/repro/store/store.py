"""The compressed block store: GET/PUT serving over the offload fleet.

This is the tier that closes the paper's read-path loop.  Writes
compress through the :class:`~repro.service.offload.OffloadService`
(``op="compress"``) and pack their compressed extents into fixed-size
segments via :class:`~repro.store.blockmap.BlockMap`.  Reads first
probe the decompressed-block cache
(:class:`~repro.store.cache.BlockCache`): a hit is a DRAM copy, a miss
reads the compressed extent from media and issues ``op="decompress"``
through the service — priced by each device's decompress-calibrated
cost model, so placement choice reflects the decompress side of
Figure 12, not the compress side.

Concurrent misses on the same block coalesce onto one in-flight
decompress (the waiters all complete when it does), so a popularity
spike does not multiply fleet traffic before the cache warms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.errors import StoreError
from repro.service.fleet import FleetDevice
from repro.service.model import ModeledCost
from repro.service.offload import OffloadService, ServiceReport
from repro.service.request import (
    INTERACTIVE,
    THROUGHPUT,
    OffloadRequest,
    SloClass,
)
from repro.sim.engine import Simulator
from repro.sim.stats import LatencyRecorder
from repro.store.blockmap import BlockMap
from repro.store.cache import BlockCache
from repro.telemetry import DISABLED


@dataclass
class StoreMetrics:
    """Counters and recorders accumulated over one store run."""

    reads: int = 0
    writes: int = 0
    failed_reads: int = 0
    failed_writes: int = 0
    coalesced_reads: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    #: Decompressed bytes served to readers inside the measurement
    #: window (drained backlog must not inflate read goodput).
    window_read_bytes: int = 0
    window_write_bytes: int = 0
    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    hit_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    miss_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    write_latency: LatencyRecorder = field(default_factory=LatencyRecorder)


@dataclass
class StoreReport:
    """Per-run summary: read/write latency split, cache and space stats."""

    policy: str
    duration_ns: float
    reads: int
    writes: int
    failed_reads: int
    failed_writes: int
    coalesced_reads: int
    hit_rate: float
    ghost_hit_rate: float
    read_mean_us: float
    read_p50_us: float
    read_p95_us: float
    read_p99_us: float
    hit_p99_us: float
    miss_p99_us: float
    write_p50_us: float
    write_p99_us: float
    window_read_bytes: int
    window_write_bytes: int
    compression_ratio: float
    live_bytes: int
    garbage_bytes: int
    physical_bytes: int
    #: SLO-class names the store stamped on its reads/writes, plus the
    #: per-class deadline-miss rates from the underlying service.
    read_slo: str = "best-effort"
    write_slo: str = "best-effort"
    read_miss_rate: float = 0.0
    write_miss_rate: float = 0.0
    #: The underlying fleet view (placement breakdowns, spill/shed).
    service: ServiceReport | None = None

    @property
    def read_gbps(self) -> float:
        """Decompressed read goodput over the window (bytes/ns == GB/s)."""
        if self.duration_ns <= 0:
            return 0.0
        return self.window_read_bytes / self.duration_ns

    @property
    def write_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.window_write_bytes / self.duration_ns

    def row(self) -> dict:
        """Flat row for :func:`repro.profiling.report.format_table`."""
        return {
            "policy": self.policy,
            "read_gbps": self.read_gbps,
            "hit_rate": self.hit_rate,
            "read_p50_us": self.read_p50_us,
            "read_p99_us": self.read_p99_us,
            "miss_p99_us": self.miss_p99_us,
            "write_p99_us": self.write_p99_us,
            "failed": self.failed_reads + self.failed_writes,
        }


class CompressedBlockStore:
    """Logical compressed block store served by a CDPU fleet.

    The store works on fixed-size logical blocks (``block_bytes``).
    Reads and writes are descriptor-level like the service layer: the
    map records compressed sizes, and each block's achieved ratio
    (``length / block_bytes``) feeds the decompress cost model on the
    read path.

    Reads and writes carry distinct SLO classes: a GET is foreground
    work someone is waiting on (``read_slo``, interactive tier by
    default) while PUT packing is background ingestion
    (``write_slo``, throughput tier), so under an SLO-aware scheduler
    foreground reads beat background writes to constrained fleet
    capacity.
    """

    def __init__(self, sim: Simulator, service: OffloadService,
                 cache: BlockCache, *,
                 block_bytes: int = 65536,
                 segment_bytes: int | None = None,
                 read_slo: SloClass = INTERACTIVE,
                 write_slo: SloClass = THROUGHPUT,
                 hit_overhead_ns: float = 400.0,
                 hit_per_byte_ns: float = 0.032,
                 media_overhead_ns: float = 5000.0,
                 media_per_byte_ns: float = 0.025) -> None:
        if block_bytes <= 0:
            raise StoreError(f"block size must be > 0, got {block_bytes}")
        self.sim = sim
        self.service = service
        self.cache = cache
        self.read_slo = read_slo
        self.write_slo = write_slo
        self.block_bytes = block_bytes
        self.blockmap = BlockMap(segment_bytes if segment_bytes is not None
                                 else 4 * block_bytes)
        #: Cache-hit service time: a DRAM copy of the decompressed block.
        self.hit_overhead_ns = hit_overhead_ns
        self.hit_per_byte_ns = hit_per_byte_ns
        #: Media fetch of the compressed extent on a cache miss.
        self.media_overhead_ns = media_overhead_ns
        self.media_per_byte_ns = media_per_byte_ns
        self.metrics = StoreMetrics()
        #: Telemetry sink; the shared no-op unless the session wires a
        #: live one in (hot-path sites guard on ``telemetry.tracing``).
        self.telemetry = DISABLED
        #: Readers waiting on an in-flight decompress, keyed by block:
        #: (arrival time, completion callback, trace op id) triples —
        #: the duplicate-fetch coalescing state.
        self._pending_reads: dict[
            int, list[tuple[float, Callable[[str], None] | None,
                            int]]] = {}
        #: Completions at or before this instant count toward goodput.
        self.measure_until_ns: float | None = None

    # -- population -------------------------------------------------------------

    def load(self, blocks: int, ratio_range: tuple[float, float] = (0.3, 1.0),
             seed: int = 0) -> None:
        """Bulk-populate the block map (no simulated traffic).

        Gives every logical block an initial compressed extent so the
        read path always resolves; per-block ratios are drawn from a
        dedicated seeded RNG, independent of the request stream.
        """
        rng = random.Random(seed)
        low, high = ratio_range
        for block in range(blocks):
            self.blockmap.store(block, self._compressed_len(
                rng.uniform(low, high)))

    def _compressed_len(self, ratio: float) -> int:
        return max(1, round(self.block_bytes * min(max(ratio, 0.0), 1.0)))

    # -- write path -------------------------------------------------------------

    def put(self, block: int, tenant: int, ratio: float,
            on_done: Callable[[str], None] | None = None) -> str:
        """Write one logical block; returns the service outcome.

        ``on_done`` (if given) fires exactly once when the write
        finishes, with ``"completed"`` or ``"dropped"`` — the hook
        closed-loop store clients hang their in-flight windows on.
        """
        arrival = self.sim.now
        self.metrics.writes += 1
        tel = self.telemetry
        op_id = tel.next_id() if tel.tracing else -1
        request = OffloadRequest(tenant=tenant, nbytes=self.block_bytes,
                                 ratio=ratio, op="compress",
                                 slo=self.write_slo)

        def completed(req: OffloadRequest, device: FleetDevice,
                      cost: ModeledCost) -> None:
            self.blockmap.store(block, self._compressed_len(req.ratio))
            # Write-allocate: freshly written blocks are hot, and the
            # decompressed content is in hand anyway.
            self.cache.insert(block)
            latency_ns = self.sim.now - arrival
            self.metrics.write_latency.record(latency_ns)
            self.metrics.write_bytes += self.block_bytes
            if (self.measure_until_ns is None
                    or self.sim.now <= self.measure_until_ns):
                self.metrics.window_write_bytes += self.block_bytes
            if tel.tracing:
                tel.span("store", "put", arrival, self.sim.now, {
                    "req": op_id, "block": block,
                    "compress_req": req.trace_id,
                })
            if on_done is not None:
                on_done("completed")

        def dropped(req: OffloadRequest) -> None:
            # Fires on a synchronous shed *or* a later eviction of the
            # queued write by higher-priority work.
            self.metrics.failed_writes += 1
            if tel.tracing:
                tel.instant("store", "put-drop", self.sim.now, {
                    "req": op_id, "block": block,
                })
            if on_done is not None:
                on_done("dropped")

        return self.service.submit(request, on_complete=completed,
                                   on_drop=dropped)

    # -- read path --------------------------------------------------------------

    def get(self, block: int, tenant: int,
            on_done: Callable[[str], None] | None = None) -> str:
        """Read one logical block; returns 'hit', 'coalesced', 'miss'
        or 'shed'.

        ``on_done`` (if given) fires exactly once when the read
        finishes, with ``"completed"`` or ``"dropped"`` — coalesced
        waiters each get their own callback when the shared in-flight
        decompress lands.
        """
        arrival = self.sim.now
        self.metrics.reads += 1
        tel = self.telemetry
        op_id = tel.next_id() if tel.tracing else -1
        if self.cache.lookup(block):
            if tel.tracing:
                tel.instant("store", "cache-probe", arrival, {
                    "req": op_id, "block": block, "outcome": "hit",
                })
            self.sim.call_later(0.0, partial(self._serve_hit, arrival,
                                             on_done, block, op_id))
            return "hit"
        if block in self._pending_reads:
            # Another reader already has this block's decompress in
            # flight — piggyback instead of re-fetching.
            self._pending_reads[block].append((arrival, on_done, op_id))
            self.metrics.coalesced_reads += 1
            if tel.tracing:
                tel.instant("store", "coalesce", arrival, {
                    "req": op_id, "block": block,
                    "waiters": len(self._pending_reads[block]),
                })
            return "coalesced"
        if tel.tracing:
            tel.instant("store", "cache-probe", arrival, {
                "req": op_id, "block": block, "outcome": "miss",
            })
        location = self.blockmap.lookup(block)
        self._pending_reads[block] = [(arrival, on_done, op_id)]
        self.sim.call_later(0.0, partial(self._serve_miss, block, tenant,
                                         location.length))
        return "miss"

    # Hit and miss service are kernel callback chains.  ``get`` defers
    # each by a zero-delay entry before the copy or media delay is
    # scheduled; keep that hop, since dropping it would reorder entries
    # that share an instant (the store golden run pins the order).

    def _serve_hit(self, arrival_ns: float,
                   on_done: Callable[[str], None] | None,
                   block: int, op_id: int) -> None:
        self.sim.call_later(
            self.hit_overhead_ns + self.hit_per_byte_ns * self.block_bytes,
            partial(self._hit_done, arrival_ns, on_done, block, op_id))

    def _hit_done(self, arrival_ns: float,
                  on_done: Callable[[str], None] | None,
                  block: int, op_id: int) -> None:
        self._finish_read(arrival_ns, self.metrics.hit_latency)
        tel = self.telemetry
        if tel.tracing:
            tel.span("store", "get", arrival_ns, self.sim.now, {
                "req": op_id, "block": block, "outcome": "hit",
            })
        if on_done is not None:
            on_done("completed")

    def _serve_miss(self, block: int, tenant: int,
                    compressed_len: int) -> None:
        # Fetch the compressed extent from media, then decompress via
        # the fleet.
        self.sim.call_later(
            self.media_overhead_ns + self.media_per_byte_ns * compressed_len,
            partial(self._submit_decompress, block, tenant, compressed_len))

    def _submit_decompress(self, block: int, tenant: int,
                           compressed_len: int) -> None:
        # The request carries the *decompressed* size (what the per-op
        # cost models are fitted on) and the block's stored achieved
        # ratio.
        request = OffloadRequest(tenant=tenant, nbytes=self.block_bytes,
                                 ratio=compressed_len / self.block_bytes,
                                 op="decompress", slo=self.read_slo)
        self.service.submit(
            request,
            on_complete=partial(self._decompress_completed, block),
            on_drop=partial(self._decompress_dropped, block))

    def _decompress_completed(self, block: int, req: OffloadRequest,
                              device: FleetDevice,
                              cost: ModeledCost) -> None:
        self.cache.insert(block)
        tel = self.telemetry
        for index, (waiter_arrival, waiter_done, waiter_op) in \
                enumerate(self._pending_reads.pop(block, [])):
            self._finish_read(waiter_arrival, self.metrics.miss_latency)
            if tel.tracing:
                tel.span("store", "get", waiter_arrival, self.sim.now, {
                    "req": waiter_op, "block": block,
                    "outcome": "miss" if index == 0 else "coalesced",
                    "decompress_req": req.trace_id,
                })
            if waiter_done is not None:
                waiter_done("completed")

    def _decompress_dropped(self, block: int, req: OffloadRequest) -> None:
        # Fires on a synchronous shed *or* a later eviction of the
        # queued decompress; every coalesced waiter fails with it.
        tel = self.telemetry
        waiters = self._pending_reads.pop(block, [])
        self.metrics.failed_reads += len(waiters)
        for _, waiter_done, waiter_op in waiters:
            if tel.tracing:
                tel.instant("store", "get-drop", self.sim.now, {
                    "req": waiter_op, "block": block,
                })
            if waiter_done is not None:
                waiter_done("dropped")

    def _finish_read(self, arrival_ns: float,
                     recorder: LatencyRecorder) -> None:
        latency_ns = self.sim.now - arrival_ns
        recorder.record(latency_ns)
        self.metrics.read_latency.record(latency_ns)
        self.metrics.read_bytes += self.block_bytes
        if (self.measure_until_ns is None
                or self.sim.now <= self.measure_until_ns):
            self.metrics.window_read_bytes += self.block_bytes

    # -- reporting ----------------------------------------------------------------

    def report(self, duration_ns: float | None = None) -> StoreReport:
        metrics = self.metrics
        reads = metrics.read_latency.summary_us()
        service_report = self.service.report(duration_ns=duration_ns)

        def miss_rate(slo_name: str) -> float:
            return next((row["miss_rate"]
                         for row in service_report.slo_breakdown
                         if row["slo"] == slo_name), 0.0)

        return StoreReport(
            policy=self.service.policy.name,
            duration_ns=duration_ns if duration_ns is not None
            else self.sim.now,
            reads=metrics.reads,
            writes=metrics.writes,
            failed_reads=metrics.failed_reads,
            failed_writes=metrics.failed_writes,
            coalesced_reads=metrics.coalesced_reads,
            hit_rate=self.cache.hit_rate,
            ghost_hit_rate=self.cache.ghost_hit_rate,
            read_mean_us=reads["mean_us"],
            read_p50_us=reads["p50_us"],
            read_p95_us=reads["p95_us"],
            read_p99_us=reads["p99_us"],
            hit_p99_us=metrics.hit_latency.summary_us()["p99_us"],
            miss_p99_us=metrics.miss_latency.summary_us()["p99_us"],
            write_p50_us=metrics.write_latency.summary_us()["p50_us"],
            write_p99_us=metrics.write_latency.summary_us()["p99_us"],
            window_read_bytes=metrics.window_read_bytes,
            window_write_bytes=metrics.window_write_bytes,
            compression_ratio=self.blockmap.compression_ratio(
                self.block_bytes),
            live_bytes=self.blockmap.live_bytes,
            garbage_bytes=self.blockmap.garbage_bytes,
            physical_bytes=self.blockmap.physical_bytes,
            read_slo=self.read_slo.name,
            write_slo=self.write_slo.name,
            read_miss_rate=miss_rate(self.read_slo.name),
            write_miss_rate=miss_rate(self.write_slo.name),
            service=service_report,
        )

