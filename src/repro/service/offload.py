"""The compression offload service: open-loop serving over a fleet.

This is the layer the paper's placement taxonomy (Figure 1) feeds
into: a stream of compression requests from many tenants arrives
open-loop and must be placed on one of several CDPUs — CPU software,
peripheral QAT, on-chip QAT, or in-storage DPZip — each with its own
latency budget, queue and degradation behaviour.  The service runs
entirely on :class:`repro.sim.engine.Simulator` and is split into an
explicit control plane and data plane:

* arrivals come from an :class:`~repro.service.request.OpenLoopStream`
  carrying per-request :class:`~repro.service.request.SloClass` tags;
* the :class:`~repro.service.scheduler.SchedulerCore` (control plane)
  owns admission, placement (via a pluggable
  :class:`~repro.service.policy.DispatchPolicy`), deadline-aware
  dispatch order and SLO accounting;
* each :class:`~repro.service.fleet.FleetDevice` (data plane) batches
  submissions and serves engine time through the
  :mod:`repro.virt.qos` arbiters (so Figure 20's fairness results
  apply per device);
* the :class:`~repro.service.control.FleetController` reconfigures the
  fleet mid-run — hotplug, drain/unplug, brown-out, power caps —
  while the data plane keeps serving;
* per-tenant/per-placement/per-SLO-class percentiles come out of
  :mod:`repro.sim.stats`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import FleetConfigError, ServiceError
from repro.hw.cpu import CpuSoftwareDevice
from repro.hw.dpzip import DpzipEngine
from repro.hw.engine import CdpuDevice
from repro.hw.qat import Qat4xxx, Qat8970
from repro.service.admission import AdmissionController
from repro.service.fleet import FleetDevice
from repro.service.model import DeviceCostModel, ModeledCost
from repro.service.policy import DispatchPolicy, make_policy
from repro.service.request import OffloadRequest, OpenLoopStream
from repro.service.scheduler import SchedulerCore, ServiceMetrics
from repro.sim.engine import Simulator


@dataclass
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


class OffloadService:
    """Routes an open-loop request stream across a CDPU fleet.

    A thin serving façade: per-request control decisions live in the
    :class:`~repro.service.scheduler.SchedulerCore` (``self.scheduler``)
    and the fleet membership list is shared with it, so a
    :class:`~repro.service.control.FleetController` can reconfigure the
    fleet mid-run through the same core.
    """

    def __init__(self, sim: Simulator,
                 devices: Sequence[FleetDevice],
                 policy: DispatchPolicy | str,
                 admission: AdmissionController | None = None,
                 spill_device: FleetDevice | None = None,
                 pending_limit: int | None = None) -> None:
        if not devices:
            raise ServiceError("fleet must contain at least one device")
        self.sim = sim
        self.devices = list(devices)
        if admission is not None:
            # Sweeps share one controller across runs; its EWMA state
            # belongs to this run only.
            admission.reset()
        self.scheduler = SchedulerCore(
            sim, self.devices,
            make_policy(policy) if isinstance(policy, str) else policy,
            admission=admission,
            spill_device=spill_device,
            pending_limit=pending_limit,
        )

    # -- control-plane views ---------------------------------------------------

    @property
    def policy(self) -> DispatchPolicy:
        return self.scheduler.placement

    @property
    def admission(self) -> AdmissionController | None:
        return self.scheduler.admission

    @property
    def spill_device(self) -> FleetDevice | None:
        return self.scheduler.spill_device

    @property
    def metrics(self) -> ServiceMetrics:
        return self.scheduler.metrics

    @property
    def measure_until_ns(self) -> float | None:
        """Completions at or before this instant count toward goodput."""
        return self.scheduler.measure_until_ns

    @measure_until_ns.setter
    def measure_until_ns(self, value: float | None) -> None:
        self.scheduler.measure_until_ns = value

    def utilization(self) -> float:
        """Fleet fill fraction: in-flight over online queue capacity."""
        return self.scheduler.utilization()

    # -- submission ------------------------------------------------------------

    def submit(self, request: OffloadRequest,
               on_complete: Callable[[OffloadRequest, FleetDevice,
                                      ModeledCost], None] | None = None,
               on_drop: Callable[[OffloadRequest], None] | None = None
               ) -> str:
        """Route one request; returns 'admitted', 'queued', 'spilled'
        or 'shed'.

        ``on_complete`` (if given) runs after the scheduler's own
        completion accounting — the hook upper layers like the block
        store use to observe their requests finishing.  ``on_drop``
        runs if the request is shed, including a later eviction of a
        queued request by higher-priority work.
        """
        return self.scheduler.submit(request, on_complete=on_complete,
                                     on_drop=on_drop)

    # -- stream end ------------------------------------------------------------

    def flush(self) -> None:
        """Flush every device's partially-filled batch immediately.

        Called when an arrival stream ends: buffered submissions must
        not wait on a batch timer that will never be joined by further
        arrivals.  Also arms the scheduler's drain mode, so pending
        work dispatched *after* this point (pump, migration) keeps
        flushing instead of stranding in a timer-less batch buffer.
        """
        self.scheduler.drain_mode = True
        self.scheduler.flush_batches()

    # -- reporting -------------------------------------------------------------

    def report(self, duration_ns: float | None = None) -> ServiceReport:
        metrics = self.metrics
        summary = metrics.overall.summary_us()
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
        slo_breakdown = []
        for name, stats in sorted(metrics.slo.items(),
                                  key=lambda kv: (kv[1].tier, kv[0])):
            latency = metrics.by_slo.summary_us((name,))
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
            breakdown=metrics.by_tenant_placement.breakdown(
                ("tenant", "placement")),
            op_breakdown=metrics.by_op_placement.breakdown(
                ("op", "placement")),
            slo_breakdown=slo_breakdown,
            per_device=per_device,
        )


def default_fleet() -> list[CdpuDevice]:
    """The paper's full placement mix: one device per Figure 1 column."""
    return [
        CpuSoftwareDevice("deflate"),
        Qat8970(),      # peripheral
        Qat4xxx(),      # on-chip
        DpzipEngine(),  # in-storage
    ]


FleetSpec = Sequence[
    tuple[CdpuDevice, DeviceCostModel | dict[str, DeviceCostModel] | None]
    | CdpuDevice
]


def build_fleet(sim: Simulator,
                fleet: FleetSpec | None = None,
                spill: tuple[CdpuDevice,
                             DeviceCostModel | dict[str, DeviceCostModel]
                             | None] | CdpuDevice | None = None,
                batch_size: int = 4,
                batch_timeout_ns: float | None = 20_000.0,
                queue_limit: int | None = None,
                fair_share_tenants: int | None = None
                ) -> tuple[list[FleetDevice], FleetDevice | None]:
    """Wrap fleet/spill entries as :class:`FleetDevice` members.

    Entries may be bare devices (calibrated on construction), a
    ``(device, model)`` pair, or ``(device, {op: model})`` pairs from
    :func:`~repro.service.model.calibrated_ops` for mixed-op serving;
    sweeps calibrate once and reuse the pairs across runs.

    Composition is validated loudly: duplicate device names (which
    would make :class:`~repro.service.control.FleetController` targets
    ambiguous and per-device reports indistinguishable) and
    non-positive queue depths raise :class:`~repro.errors.
    FleetConfigError` naming the offending entry.
    """
    if queue_limit is not None and queue_limit < 1:
        raise FleetConfigError(
            f"queue limit must be >= 1, got {queue_limit}"
        )

    def as_fleet_device(entry) -> FleetDevice:
        device, model = (entry if isinstance(entry, tuple)
                         else (entry, None))
        if device.queue_depth < 1:
            raise FleetConfigError(
                f"device {device.name!r} has non-positive queue depth "
                f"{device.queue_depth}"
            )
        return FleetDevice(
            sim, device, model,
            queue_limit=queue_limit,
            batch_size=batch_size,
            batch_timeout_ns=batch_timeout_ns,
            fair_share_tenants=fair_share_tenants,
        )

    members = [as_fleet_device(entry)
               for entry in (fleet if fleet is not None else default_fleet())]
    seen: dict[str, int] = {}
    for member in members:
        seen[member.name] = seen.get(member.name, 0) + 1
    duplicates = sorted(name for name, count in seen.items() if count > 1)
    if duplicates:
        raise FleetConfigError(
            f"duplicate device name(s) {duplicates} in fleet; give each "
            f"member a unique name so controllers and reports can target "
            f"it (e.g. rename the second instance)"
        )
    spill_member = as_fleet_device(spill) if spill is not None else None
    return members, spill_member


def run_offload_service(
        stream: OpenLoopStream,
        policy: DispatchPolicy | str = "cost-model",
        fleet: FleetSpec | None = None,
        spill: tuple[CdpuDevice,
                     DeviceCostModel | dict[str, DeviceCostModel] | None]
        | CdpuDevice | None = None,
        admission: AdmissionController | None = None,
        batch_size: int = 4,
        batch_timeout_ns: float | None = 20_000.0,
        queue_limit: int | None = None,
        fair_share_tenants: int | None = None,
        pending_limit: int | None = None,
        reconfigure: Callable[["OffloadService"], None] | None = None
        ) -> ServiceReport:
    """Deprecated one-call service run kept as a back-compat shim.

    New code should build a :class:`~repro.cluster.session.Cluster`
    (declaratively via :class:`~repro.cluster.spec.ClusterSpec`, or
    from pre-built parts), attach clients, and read the unified
    :class:`~repro.cluster.result.RunResult`; this shim wires the same
    session underneath and returns only the service view.

    ``fleet``/``spill`` entries may be bare devices (calibrated here),
    ``(device, model)`` pairs, or ``(device, {op: model})`` pairs so
    sweeps can calibrate once and reuse across ops.

    ``reconfigure`` (if given) runs with the built service before the
    simulation starts — the hook for scheduling mid-run fleet events
    through a :class:`~repro.service.control.FleetController` (brown-
    outs, unplugs, power caps).
    """
    from repro.cluster.session import Cluster

    warnings.warn(
        "run_offload_service is deprecated; use Cluster.from_spec with a "
        "ClusterSpec and attach an open-loop client instead "
        "(see repro.cluster)",
        DeprecationWarning, stacklevel=2,
    )
    sim = Simulator()
    members, spill_member = build_fleet(
        sim, fleet, spill,
        batch_size=batch_size,
        batch_timeout_ns=batch_timeout_ns,
        queue_limit=queue_limit,
        fair_share_tenants=fair_share_tenants,
    )
    service = OffloadService(sim, members, policy,
                             admission=admission,
                             spill_device=spill_member,
                             pending_limit=pending_limit)
    cluster = Cluster(sim, service)
    if reconfigure is not None:
        reconfigure(service)
    cluster.open_loop(stream)
    return cluster.run().service
