"""The offload service's serving object: dispatch, admission, SLOs.

:class:`SchedulerCore` is the offload service: clients, the block
store and the federation router submit to it, it owns every
per-request control decision, and it builds the run's
:class:`ServiceReport` — the data plane (:class:`~repro.service.fleet.
FleetDevice`) only executes what the core dispatches:

* **admission** — the :class:`~repro.service.admission.
  AdmissionController` watches smoothed fleet utilization; past its
  thresholds the core spills to CPU software or sheds, shedding the
  *lowest-priority, latest-deadline* pending work first so overload is
  absorbed by the tiers that can stand it (the paper's multi-tenant
  priority result, Findings 9-10);
* **placement** — a pluggable :class:`~repro.service.policy.
  DispatchPolicy` picks the device among the *online* fleet members;
  the core filters out draining/offline devices so strategies stay
  oblivious to fleet reconfiguration;
* **dispatch order** — with an SLO-aware policy, requests that find no
  capacity wait in a bounded pending queue served earliest-deadline-
  first within each priority tier (EDF across equal tiers, strict
  priority across tiers).  With a flat policy the pending queue has
  zero length and the core degrades to the immediate
  dispatch-spill-shed behaviour the flat policies were built around;
* **SLO accounting** — every completion is checked against its
  request's :class:`~repro.service.request.SloClass` deadline, feeding
  the per-class deadline-miss rates in :class:`ServiceReport`.

The core is also the re-entry point for dynamic fleet reconfiguration:
the :class:`~repro.service.control.FleetController` hands reclaimed
in-flight work to :meth:`migrate` and kicks :meth:`pump` whenever
membership or device speed changes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ServiceError
from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.fleet import FleetDevice, _Submission
from repro.service.model import ModeledCost
from repro.service.policy import DispatchPolicy, make_policy
from repro.service.request import OffloadRequest, SloClass
from repro.sim.engine import Simulator
from repro.sim.stats import KeyedLatencyRecorder, LatencyRecorder
from repro.telemetry import DISABLED

#: Pending-queue depth an SLO-aware policy gets when none is specified.
DEFAULT_PENDING_LIMIT = 64

# Argument names of each trace event the scheduler records.
_ADMIT_KEYS = ("req", "outcome", "slo", "tenant", "op", "nbytes")
_SHED_KEYS = ("req", "slo")
_PEND_KEYS = ("req", "depth")
_MIGRATE_KEYS = ("req",)
_COMPLETE_KEYS = ("req", "device", "lat_us", "missed")

CompletionHook = Callable[[OffloadRequest, FleetDevice, ModeledCost], None]
DropHook = Callable[[OffloadRequest], None]


@dataclass(slots=True)
class SloStats:
    """Per-SLO-class outcome counters for one service run."""

    tier: int
    completed: int = 0
    missed: int = 0
    shed: int = 0
    #: Requests routed straight to the CPU spill path because every
    #: online device's predicted completion already blew the deadline.
    infeasible: int = 0

    @property
    def offered(self) -> int:
        return self.completed + self.shed

    @property
    def miss_rate(self) -> float:
        """Deadline-miss fraction; a shed request misses by definition."""
        if self.offered == 0:
            return 0.0
        return (self.missed + self.shed) / self.offered


@dataclass(slots=True)
class CompletionLog:
    """Append-only columns, one row per completed request.

    Rows are in completion order.  ``latency_ns`` is an ``array('d')``
    and the other columns hold atomic values (tenant ids, placement,
    op and SLO-class names), so a long run leaves the cyclic GC five
    containers of untracked values instead of a recorder and a list
    per key.  Breakdowns are grouped from the columns at report time
    (:meth:`grouped`); each key's samples are the same values in the
    same order as per-key recording gave, so every summary is
    identical.
    """

    latency_ns: array = field(default_factory=lambda: array("d"))
    tenant: list = field(default_factory=list)
    placement: list[str] = field(default_factory=list)
    op: list[str] = field(default_factory=list)
    slo: list[str] = field(default_factory=list)

    def grouped(self, *columns: list) -> KeyedLatencyRecorder:
        """Latencies keyed by the tuple of ``columns`` values per row,
        e.g. ``log.grouped(log.tenant, log.placement)``."""
        return KeyedLatencyRecorder.grouped(zip(*columns), self.latency_ns)


@dataclass(slots=True)
class ServiceReport:
    """Per-run summary: throughput, percentiles, breakdowns."""

    policy: str
    duration_ns: float
    offered: int
    completed: int
    spilled: int
    shed: int
    migrated: int
    completed_bytes: int
    window_bytes: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    breakdown: list[dict] = field(default_factory=list)
    #: One row per (op, placement): the decompress/compress split.
    op_breakdown: list[dict] = field(default_factory=list)
    #: One row per SLO class: deadline-miss and shed accounting.
    slo_breakdown: list[dict] = field(default_factory=list)
    per_device: list[dict] = field(default_factory=list)

    @property
    def completed_gbps(self) -> float:
        """Goodput over the measurement window (bytes/ns == GB/s)."""
        if self.duration_ns <= 0:
            return 0.0
        return self.window_bytes / self.duration_ns

    @property
    def goodput_fraction(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    def row(self) -> dict:
        """Flat row for :func:`repro.profiling.report.format_table`."""
        return {
            "policy": self.policy,
            "completed_gbps": self.completed_gbps,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "completed": self.completed,
            "spilled": self.spilled,
            "shed": self.shed,
        }

    def placement_shares(self, op: str) -> dict[str, float]:
        """Fraction of completed ``op`` requests served per placement."""
        counts = {row["placement"]: row["count"]
                  for row in self.op_breakdown if row["op"] == op}
        total = sum(counts.values())
        if total == 0:
            return {}
        return {placement: count / total
                for placement, count in counts.items()}

    def slo_miss_rate(self, slo_name: str) -> float:
        """Deadline-miss fraction for one SLO class (shed counts missed)."""
        for row in self.slo_breakdown:
            if row["slo"] == slo_name:
                return row["miss_rate"]
        raise ServiceError(
            f"no traffic observed for SLO class {slo_name!r}; classes "
            f"seen: {[row['slo'] for row in self.slo_breakdown]}"
        )


@dataclass(slots=True)
class ServiceMetrics:
    """Counters and the completion log accumulated over one service run.

    The counters and the per-SLO-class :class:`SloStats` are live:
    gauges sample them mid-run.  Latency is recorded once per
    completion into :attr:`log`; the overall percentiles and the
    (tenant, placement), (op, placement) and per-SLO-class breakdowns
    are derived from it when the service reports.
    """

    offered: int = 0
    completed: int = 0
    spilled: int = 0
    shed: int = 0
    #: Requests reclaimed from an unplugged device and re-routed.
    migrated: int = 0
    completed_bytes: int = 0
    #: Bytes completed inside the measurement window (backlog drained
    #: after arrivals stop must not inflate goodput).
    window_bytes: int = 0
    #: One row per completed request: latency, tenant, placement, op
    #: and SLO class.
    log: CompletionLog = field(default_factory=CompletionLog)
    #: Per-SLO-class deadline/shed counters, keyed by class name.
    slo: dict[str, SloStats] = field(default_factory=dict)

    def slo_stats(self, slo: SloClass) -> SloStats:
        stats = self.slo.get(slo.name)
        if stats is None:
            stats = self.slo[slo.name] = SloStats(tier=slo.tier)
        return stats


@dataclass(slots=True)
class _PendingEntry:
    """One parked request awaiting capacity, with its hooks."""

    request: OffloadRequest
    on_complete: CompletionHook
    on_drop: DropHook | None
    cancelled: bool = False


class _CompletionChain:
    """Core accounting + caller hook + dispatch pump, in that order.

    A class (not a closure) so :meth:`SchedulerCore.migrate` can
    recover the caller's drop hook from a reclaimed submission.
    """

    __slots__ = ("core", "extra", "on_drop")

    def __init__(self, core: "SchedulerCore",
                 extra: CompletionHook | None,
                 on_drop: DropHook | None) -> None:
        self.core = core
        self.extra = extra
        self.on_drop = on_drop

    def __call__(self, request: OffloadRequest, device: FleetDevice,
                 cost: ModeledCost) -> None:
        self.core._record_completion(request, device, cost)
        if self.extra is not None:
            self.extra(request, device, cost)
        self.core.pump()


class SchedulerCore:
    """Routes an open-loop request stream across a CDPU fleet.

    Owns dispatch, admission and the SLO model for one service run,
    and reports it (:meth:`report`).  ``devices`` is copied into the
    live (mutable) fleet membership list, which the
    :class:`~repro.service.control.FleetController` reconfigures
    mid-run through this core.
    """

    __slots__ = ("sim", "devices", "policy", "admission", "spill_device",
                 "slo_aware", "pending_limit", "metrics", "telemetry",
                 "measure_until_ns", "drain_mode", "_heap",
                 "_pending_count", "_cancelled_count", "_sequence")

    def __init__(self, sim: Simulator, devices: Sequence[FleetDevice],
                 policy: DispatchPolicy | str, *,
                 admission: AdmissionController | None = None,
                 spill_device: FleetDevice | None = None,
                 pending_limit: int | None = None) -> None:
        if not devices:
            raise ServiceError("fleet must contain at least one device")
        if isinstance(policy, str):
            policy = make_policy(policy)
        if admission is not None:
            # Sweeps share one controller across runs; its EWMA state
            # belongs to this run only.
            admission.reset()
        self.sim = sim
        self.devices = list(devices)
        self.policy = policy
        self.admission = admission
        self.spill_device = spill_device
        self.slo_aware = bool(getattr(policy, "slo_aware", False))
        if pending_limit is None:
            pending_limit = DEFAULT_PENDING_LIMIT if self.slo_aware else 0
        if pending_limit < 0:
            raise ServiceError(
                f"pending limit must be >= 0, got {pending_limit}"
            )
        self.pending_limit = pending_limit
        self.metrics = ServiceMetrics()
        #: Telemetry sink; the shared no-op unless the session wires a
        #: live one in (hot-path sites guard on ``telemetry.tracing``).
        self.telemetry = DISABLED
        #: Completions at or before this instant count toward goodput;
        #: None counts everything.
        self.measure_until_ns: float | None = None
        #: Set when the arrival stream has ended: dispatches made while
        #: draining flush device batches immediately, because a partial
        #: batch on a timer-less device would otherwise never ring its
        #: doorbell (no further arrivals will top it up).
        self.drain_mode = False
        # EDF-within-tier pending queue: a heap keyed by
        # (priority tier, absolute deadline, arrival sequence), with
        # lazy deletion for shed-first evictions.
        self._heap: list[tuple[int, float, int, _PendingEntry]] = []
        self._pending_count = 0
        #: Cancelled (lazily deleted) entries still sitting in the
        #: heap; audited so eviction storms cannot let tombstones
        #: dominate and degrade every push/pop to O(dead + live).
        self._cancelled_count = 0
        self._sequence = itertools.count()

    # -- fleet state -----------------------------------------------------------

    def online_devices(self) -> list[FleetDevice]:
        return [d for d in self.devices if d.is_online]

    @property
    def pending(self) -> int:
        """Requests parked in the scheduler's pending queue."""
        return self._pending_count

    def utilization(self) -> float:
        """Fleet fill fraction: in-flight over *online* queue capacity.

        Draining devices still hold in-flight work but contribute no
        capacity, so unplugging or browning out part of the fleet
        raises utilization and the admission controller reacts without
        being told about the reconfiguration.
        """
        capacity = 0
        inflight = 0
        for device in self.devices:
            if device.is_online:
                capacity += device.queue_limit
            inflight += device.inflight
        if capacity <= 0:
            return 1.0
        return inflight / capacity

    # -- submission ------------------------------------------------------------

    def submit(self, request: OffloadRequest,
               on_complete: CompletionHook | None = None,
               on_drop: DropHook | None = None) -> str:
        """Route one request.

        Returns ``'admitted'`` (dispatched to a device), ``'queued'``
        (parked pending capacity), ``'spilled'`` or ``'shed'``.
        ``on_complete`` runs after the core's own completion
        accounting; ``on_drop`` runs if the request is shed — either
        now or later, when a pending request is evicted by
        higher-priority work.
        """
        request.arrival_ns = self.sim.now
        self.metrics.offered += 1
        tel = self.telemetry
        if tel.tracing:
            request.trace_id = tel.next_id()
        hook = _CompletionChain(self, on_complete, on_drop)
        outcome = None
        if self.admission is not None:
            decision = self.admission.decide(self.utilization())
            if decision is AdmissionDecision.SHED:
                # Low-priority shed-first: absorb the overload with
                # pending work from a strictly lower tier if any
                # exists; only shed the arrival itself when it *is*
                # the low-priority work.
                if not self._evict_below(request.slo.tier):
                    self._shed(request, on_drop)
                    outcome = "shed"
            elif decision is AdmissionDecision.SPILL:
                outcome = self._spill_or_shed(request, hook, on_drop)
        if outcome is None:
            outcome = self._dispatch_or_queue(request, hook, on_drop)
        if tel.tracing:
            tel.trace.instant(tel.tracks["scheduler"], "admit",
                              request.arrival_ns, _ADMIT_KEYS,
                              request.trace_id, outcome, request.slo.name,
                              request.tenant, request.op, request.nbytes)
        return outcome

    def _dispatch_or_queue(self, request: OffloadRequest,
                           hook: CompletionHook | None,
                           on_drop: DropHook | None) -> str:
        online = self.online_devices()
        if not online:
            # No online member means no completion will ever pump the
            # pending queue — parking would strand the request, so the
            # spill path is the only capacity left (same rule pump()
            # applies when the fleet vanishes under parked work).
            return self._spill_or_shed(request, hook, on_drop)
        if self._deadline_infeasible(request, online):
            # Every online device's predicted completion already blows
            # the deadline: burning fleet capacity on a guaranteed miss
            # starves work that could still make it, so route straight
            # to the CPU spill path (the deadline-feasibility spill).
            # Only taken when the spill valve has room — dispatching
            # remains better than shedding.
            self.metrics.slo_stats(request.slo).infeasible += 1
            self.metrics.spilled += 1
            self.spill_device.enqueue(request, hook)
            return "spilled"
        device = self.policy.select(request, online)
        if device is not None and device.can_accept():
            device.enqueue(request, hook)
            return "admitted"
        # Backpressure: the chosen queue is full (or every queue is,
        # for the cost-model policies) — park the request if the
        # pending queue has room (making room by shedding strictly
        # lower-priority work if needed), else fall back to the CPU
        # spill path rather than block the open-loop arrival process.
        if (self._pending_count < self.pending_limit
                or self._evict_below(request.slo.tier)):
            self._push_pending(request, hook, on_drop)
            return "queued"
        return self._spill_or_shed(request, hook, on_drop)

    def _deadline_infeasible(self, request: OffloadRequest,
                             online: list[FleetDevice]) -> bool:
        """True when no online device can predictably make the deadline.

        Uses the same calibrated response estimates the cost-model
        policy minimizes (a device's one-slot prediction cache makes
        the follow-up ``select`` reuse these estimates).  Requests with
        no deadline, and fleets without a spill valve that can accept,
        skip the check — infeasibility only matters when there is a
        cheaper place to send the guaranteed miss.
        """
        spill = self.spill_device
        if (spill is None or not spill.can_accept()
                or math.isinf(request.slo.deadline_ns)):
            return False
        deadline = request.deadline_ns
        return all(self.sim.now + device.estimate_response_ns(request)
                   > deadline
                   for device in online)

    def _spill_or_shed(self, request: OffloadRequest,
                       hook: CompletionHook | None,
                       on_drop: DropHook | None) -> str:
        spill = self.spill_device
        if spill is not None and spill.can_accept():
            self.metrics.spilled += 1
            spill.enqueue(request, hook)
            return "spilled"
        self._shed(request, on_drop)
        return "shed"

    def _shed(self, request: OffloadRequest,
              on_drop: DropHook | None) -> None:
        self.metrics.shed += 1
        self.metrics.slo_stats(request.slo).shed += 1
        tel = self.telemetry
        if tel.tracing:
            tel.trace.instant(tel.tracks["scheduler"], "shed", self.sim.now,
                              _SHED_KEYS, request.trace_id,
                              request.slo.name)
        if on_drop is not None:
            on_drop(request)

    # -- pending queue ---------------------------------------------------------

    def _push_pending(self, request: OffloadRequest,
                      hook: CompletionHook | None,
                      on_drop: DropHook | None) -> None:
        entry = _PendingEntry(request, hook, on_drop)
        heapq.heappush(self._heap, (request.slo.tier, request.deadline_ns,
                                    next(self._sequence), entry))
        self._pending_count += 1
        tel = self.telemetry
        if tel.tracing:
            tel.trace.instant(tel.tracks["scheduler"], "pend", self.sim.now,
                              _PEND_KEYS, request.trace_id,
                              self._pending_count)

    def _peek_pending(self) -> _PendingEntry | None:
        while self._heap:
            entry = self._heap[0][3]
            if entry.cancelled:
                heapq.heappop(self._heap)
                self._cancelled_count -= 1
                continue
            return entry
        return None

    def _pop_pending(self) -> _PendingEntry | None:
        while self._heap:
            entry = heapq.heappop(self._heap)[3]
            if entry.cancelled:
                self._cancelled_count -= 1
                continue
            self._pending_count -= 1
            return entry
        return None

    def _compact_pending(self) -> None:
        """Rebuild the heap without tombstones once they dominate.

        Lazy deletion leaves cancelled entries in place; a sustained
        eviction storm (every overloaded arrival shedding a parked
        victim) would otherwise grow the heap without bound while the
        live pending count stays flat.  Rebuilding is O(live) and the
        trigger guarantees amortized O(1) per cancellation.
        """
        if (self._cancelled_count > 32
                and self._cancelled_count * 2 > len(self._heap)):
            self._heap = [item for item in self._heap
                          if not item[3].cancelled]
            heapq.heapify(self._heap)
            self._cancelled_count = 0

    def _evict_below(self, tier: int) -> bool:
        """Shed the worst pending entry from a tier strictly below.

        "Worst" is lowest priority first, then latest deadline — the
        work whose SLO is most tolerant of being dropped.  Returns
        False when nothing strictly lower-priority is pending.
        """
        victim: _PendingEntry | None = None
        victim_key: tuple | None = None
        for entry_tier, deadline, sequence, entry in self._heap:
            if entry.cancelled or entry_tier <= tier:
                continue
            key = (entry_tier, deadline, sequence)
            if victim_key is None or key > victim_key:
                victim, victim_key = entry, key
        if victim is None:
            return False
        victim.cancelled = True
        self._pending_count -= 1
        self._cancelled_count += 1
        self._compact_pending()
        self._shed(victim.request, victim.on_drop)
        return True

    def pump(self) -> None:
        """Dispatch pending work while capacity exists.

        Called on every completion and whenever the fleet controller
        changes membership or device speed.  Pending entries leave in
        (tier, deadline) order; if the whole fleet has gone offline the
        queue drains through the CPU-spill path instead of starving.
        """
        while self._pending_count:
            online = self.online_devices()
            if not online:
                entry = self._pop_pending()
                if entry is not None:
                    self._spill_or_shed(entry.request, entry.on_complete,
                                        entry.on_drop)
                continue
            entry = self._peek_pending()
            if entry is None:
                break
            device = self.policy.select(entry.request, online)
            if device is None or not device.can_accept():
                break
            self._pop_pending()
            device.enqueue(entry.request, entry.on_complete)
        if self.drain_mode:
            self.flush_batches()

    def flush(self) -> None:
        """Flush every device's partially-filled batch immediately.

        Called when an arrival stream ends: buffered submissions must
        not wait on a batch timer that will never be joined by further
        arrivals.  Also arms drain mode, so pending work dispatched
        *after* this point (pump, migration) keeps flushing instead of
        stranding in a timer-less batch buffer.
        """
        self.drain_mode = True
        self.flush_batches()

    def flush_batches(self) -> None:
        """Ring every device's doorbell for whatever is batched."""
        for device in self.devices:
            device.batcher.flush_now()
        if self.spill_device is not None:
            self.spill_device.batcher.flush_now()

    # -- reconfiguration entry points ------------------------------------------

    def migrate(self, submissions: list[_Submission]) -> None:
        """Re-route work reclaimed from an unplugged device.

        Each submission keeps its original arrival stamp (time spent on
        the dead device counts against its deadline) and its completion
        chain, so caller hooks and SLO accounting survive the move;
        routing follows the same dispatch/park/spill cascade as a fresh
        arrival.
        """
        tel = self.telemetry
        for submission in submissions:
            self.metrics.migrated += 1
            if tel.tracing:
                tel.trace.instant(tel.tracks["scheduler"], "migrate",
                                  self.sim.now, _MIGRATE_KEYS,
                                  submission.request.trace_id)
            hook = submission.on_complete
            on_drop = (hook.on_drop
                       if isinstance(hook, _CompletionChain) else None)
            self._dispatch_or_queue(submission.request, hook, on_drop)
        if self.drain_mode:
            self.flush_batches()

    # -- completion accounting -------------------------------------------------

    def _record_completion(self, request: OffloadRequest,
                           device: FleetDevice,
                           cost: ModeledCost) -> None:
        metrics = self.metrics
        latency_ns = self.sim.now - request.arrival_ns
        metrics.completed += 1
        metrics.completed_bytes += request.nbytes
        if (self.measure_until_ns is None
                or self.sim.now <= self.measure_until_ns):
            metrics.window_bytes += request.nbytes
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        slo = request.slo
        log = metrics.log
        log.latency_ns.append(latency_ns)
        log.tenant.append(request.tenant)
        log.placement.append(device.placement.value)
        log.op.append(request.op)
        log.slo.append(slo.name)
        stats = metrics.slo_stats(slo)
        stats.completed += 1
        missed = latency_ns > slo.deadline_ns
        if missed:
            stats.missed += 1
        tel = self.telemetry
        if tel.tracing:
            tel.trace.instant(tel.tracks["scheduler"], "complete",
                              self.sim.now, _COMPLETE_KEYS,
                              request.trace_id, device.name,
                              latency_ns / 1000.0, missed)

    # -- reporting -------------------------------------------------------------

    def report(self, duration_ns: float | None = None) -> ServiceReport:
        """Summarize the run; ``duration_ns`` defaults to now."""
        metrics = self.metrics
        log = metrics.log
        # Views are built one at a time and dropped once summarized,
        # so the report never holds two copies of every latency.
        summary = LatencyRecorder(log.latency_ns).summary_us()
        breakdown = log.grouped(log.tenant, log.placement).breakdown(
            ("tenant", "placement"))
        op_breakdown = log.grouped(log.op, log.placement).breakdown(
            ("op", "placement"))
        per_device = []
        for device in self.devices + (
                [self.spill_device] if self.spill_device else []):
            per_device.append({
                "device": device.name,
                "placement": device.placement.value,
                "state": device.state.value,
                "speed": device.speed_factor,
                "completed": device.completed,
                "peak_inflight": device.peak_inflight,
                "batches": device.batches_submitted,
                "engine_gbps": device.throughput.gbps(),
            })
        by_slo = None
        slo_breakdown = []
        for name, stats in sorted(metrics.slo.items(),
                                  key=lambda kv: (kv[1].tier, kv[0])):
            # ``stats.completed`` counts the class's log rows.  A class
            # holding all of them is the whole log in completion order:
            # its summary is the overall one, so it is not sorted again.
            if stats.completed == len(log.latency_ns):
                latency = summary
            else:
                if by_slo is None:
                    by_slo = log.grouped(log.slo)
                latency = by_slo.summary_us((name,))
            slo_breakdown.append({
                "slo": name,
                "tier": stats.tier,
                "completed": stats.completed,
                "missed": stats.missed,
                "shed": stats.shed,
                "infeasible": stats.infeasible,
                "miss_rate": stats.miss_rate,
                "p50_us": latency["p50_us"],
                "p99_us": latency["p99_us"],
            })
        return ServiceReport(
            policy=self.policy.name,
            duration_ns=duration_ns if duration_ns is not None
            else self.sim.now,
            offered=metrics.offered,
            completed=metrics.completed,
            spilled=metrics.spilled,
            shed=metrics.shed,
            migrated=metrics.migrated,
            completed_bytes=metrics.completed_bytes,
            window_bytes=metrics.window_bytes,
            mean_us=summary["mean_us"],
            p50_us=summary["p50_us"],
            p95_us=summary["p95_us"],
            p99_us=summary["p99_us"],
            breakdown=breakdown,
            op_breakdown=op_breakdown,
            slo_breakdown=slo_breakdown,
            per_device=per_device,
        )
