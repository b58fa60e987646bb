"""Fleet-side device wrapper: submission queue, batching, arbitration.

A :class:`FleetDevice` is one member of the offload fleet.  It bounds
the number of requests a device will hold (``queue_limit`` — the
backpressure surface the dispatcher and admission controller react to),
coalesces submissions into batches that share one doorbell, and serves
engine occupancy through the :mod:`repro.virt.qos` arbiters so the
multi-tenant scheduling behaviour of Figure 20 (shared-FIFO QAT vs
fair-scheduled DP-CSD) carries over into the service layer unchanged.

Fleet membership is dynamic: each device carries a lifecycle
:class:`DeviceState` (online → draining → offline, driven by the
:class:`~repro.service.control.FleetController`) and a ``speed_factor``
that models brown-out/power-cap derating — engine occupancy is scaled
by ``1 / speed_factor`` both in the served timing and in the response
estimates the placement policies consult, so dispatch adapts to a
derated device without being told.

:func:`build_fleet` wraps device entries (bare devices, or devices with
their calibrated cost models) as members and validates the
composition; :func:`default_fleet` is the paper's placement mix.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from repro.errors import FleetConfigError, ServiceError
from repro.hw.cpu import CpuSoftwareDevice
from repro.hw.dpzip import DpzipEngine
from repro.hw.engine import CdpuDevice, Placement
from repro.hw.qat import Qat4xxx, Qat8970
from repro.service.model import DeviceCostModel, ModeledCost
from repro.service.request import OffloadRequest
from repro.sim.engine import Simulator
from repro.sim.stats import ThroughputTracker
from repro.telemetry import DISABLED
from repro.virt.qos import FairArbiter, FcfsArbiter, VfRequest

# Argument names of each trace event a fleet device records.
_QUEUE_KEYS = ("req", "device")
_DISPATCH_KEYS = ("req",)
_SERVE_KEYS = ("req", "op", "tenant")


class DeviceState(enum.Enum):
    """Lifecycle of one fleet member."""

    ONLINE = "online"        # accepting and serving work
    DRAINING = "draining"    # serving in-flight work, accepting nothing
    OFFLINE = "offline"      # unplugged; holds no work


class Batcher:
    """Coalesces items into batches flushed on size or timeout.

    The first item into an empty buffer arms a flush timer; reaching
    ``batch_size`` flushes immediately.  A generation counter voids
    timers for batches that already flushed on size, so no wall-clock
    state or cancellation machinery is needed.
    """

    __slots__ = ("sim", "batch_size", "timeout_ns", "_flush_fn",
                 "_buffer", "_generation")

    def __init__(self, sim: Simulator, batch_size: int,
                 timeout_ns: float | None,
                 flush: Callable[[list], None]) -> None:
        if batch_size < 1:
            raise ServiceError(f"batch size must be >= 1, got {batch_size}")
        if timeout_ns is not None and timeout_ns < 0:
            raise ServiceError(f"negative batch timeout {timeout_ns}")
        self.sim = sim
        self.batch_size = batch_size
        self.timeout_ns = timeout_ns
        self._flush_fn = flush
        self._buffer: list = []
        self._generation = 0

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def add(self, item: Any) -> None:
        self._buffer.append(item)
        if len(self._buffer) >= self.batch_size:
            self.flush_now()
        elif len(self._buffer) == 1 and self.timeout_ns is not None:
            self.sim.call_later(self.timeout_ns,
                                partial(self._expire, self._generation))

    def _expire(self, generation: int) -> None:
        if generation == self._generation and self._buffer:
            self.flush_now()

    def flush_now(self) -> None:
        """Flush whatever is buffered (also used to drain at stream end)."""
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self._generation += 1
        self._flush_fn(batch)

    def drain_buffer(self) -> list:
        """Take the buffered items back without flushing them.

        Used when a device is unplugged mid-run: work that has not yet
        rung a doorbell can still migrate to another fleet member.  The
        generation bump voids any armed flush timer.
        """
        buffer, self._buffer = self._buffer, []
        self._generation += 1
        return buffer


@dataclass(slots=True)
class _Submission:
    """One queued request plus its predicted cost and completion hook."""

    request: OffloadRequest
    cost: ModeledCost
    on_complete: Callable[[OffloadRequest, "FleetDevice", ModeledCost],
                          None] | None
    #: When the request entered this device's queue (telemetry only).
    enqueue_ns: float = 0.0
    #: When the doorbell ring finished and the pipeline began.
    entry_ns: float = 0.0
    #: Engine occupancy, derated at engine entry.
    engine_ns: float = 0.0


class FleetDevice:
    """One device of the fleet, wrapped for service-level dispatch."""

    # "state" is a property backed by _state (with is_online as its
    # hot-path mirror), so it must not appear as a slot itself.
    __slots__ = ("sim", "device", "models", "_engines", "queue_limit",
                 "arbiter", "_vf_count", "batcher", "_batch_queue",
                 "_state", "is_online", "speed_factor",
                 "inflight", "peak_inflight", "completed",
                 "batches_submitted", "backlog_ns", "throughput",
                 "_cost_cache", "telemetry")

    def __init__(self, sim: Simulator, device: CdpuDevice,
                 model: DeviceCostModel | dict[str, DeviceCostModel]
                 | None = None, *,
                 queue_limit: int | None = None,
                 batch_size: int = 1,
                 batch_timeout_ns: float | None = None,
                 fair_share_tenants: int | None = None) -> None:
        self.sim = sim
        self.device = device
        # Per-op cost models: a bare model is the compress model (the
        # historical calling convention); a dict supplies one model per
        # op so decompress requests are never priced off the compress
        # calibration.  Missing ops calibrate lazily on first use.
        if isinstance(model, dict):
            self.models = dict(model)
        elif model is not None:
            self.models = {"compress": model}
        else:
            self.models = DeviceCostModel.calibrate(device)
        engines = max(device.engine_count, 1)
        self._engines = engines
        if queue_limit is None:
            # Enough slack to keep every engine fed through transfer
            # phases without letting one device absorb the whole fleet's
            # backlog; never beyond the hardware queue ceiling.
            queue_limit = min(4 * engines + 16, device.queue_depth)
        if queue_limit < 1:
            raise ServiceError(f"queue limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        if fair_share_tenants:
            self.arbiter: FairArbiter | FcfsArbiter = FairArbiter(
                sim, engines, fair_share_tenants)
            self._vf_count: int | None = fair_share_tenants
        else:
            self.arbiter = FcfsArbiter(sim, engines, device.queue_depth)
            self._vf_count = None
        self.batcher = Batcher(sim, batch_size, batch_timeout_ns,
                               self._launch_batch)
        # Launched batches in doorbell order.  The head is the batch
        # ringing now; an empty queue is an idle device.
        self._batch_queue: deque[list[_Submission]] = deque()
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)
        self.state = DeviceState.ONLINE
        #: Brown-out/power-cap derating: fraction of nominal engine
        #: speed (1.0 = healthy).  Served engine occupancy and response
        #: estimates both scale by ``1 / speed_factor``.
        self.speed_factor = 1.0
        self.inflight = 0
        self.peak_inflight = 0
        self.completed = 0
        self.batches_submitted = 0
        #: Predicted engine-time backlog of everything in flight, in
        #: *healthy* (underated) engine-ns; the cost-model policy's
        #: queue-depth signal, scaled by the derate at estimate time.
        self.backlog_ns = 0.0
        self.throughput = ThroughputTracker()
        # One-slot prediction cache keyed by request identity: the
        # cost-model policy estimates every candidate right before the
        # winner is enqueued, so the enqueue predict is always a repeat.
        self._cost_cache: tuple[OffloadRequest, ModeledCost] | None = None
        #: Telemetry sink; the shared no-op unless the session wires a
        #: live one in (hot-path sites guard on ``telemetry.tracing``).
        self.telemetry = DISABLED

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def placement(self) -> Placement:
        return self.device.placement

    def model_for(self, op: str) -> DeviceCostModel:
        """The cost model pricing ``op``, calibrating it on first use."""
        model = self.models.get(op)
        if model is None:
            model = DeviceCostModel.calibrate(self.device, ops=(op,))[op]
            self.models[op] = model
        return model

    # -- lifecycle -------------------------------------------------------------

    @property
    def state(self) -> DeviceState:
        return self._state

    @state.setter
    def state(self, value: DeviceState) -> None:
        # ``is_online`` is kept as a plain attribute so the dispatch
        # hot path (every policy filters the fleet per request) reads
        # it without a property call; the setter keeps it in sync with
        # the (rarely changed) lifecycle state.
        self._state = value
        self.is_online = value is DeviceState.ONLINE

    def set_speed(self, factor: float) -> None:
        """Derate (or restore) the device to ``factor`` of nominal speed."""
        if not 0.0 < factor <= 1.0:
            raise ServiceError(
                f"speed factor {factor} outside (0, 1]"
            )
        self.speed_factor = factor

    def drain(self) -> None:
        """Stop accepting new work; in-flight work keeps serving."""
        if self.state is DeviceState.ONLINE:
            self.state = DeviceState.DRAINING

    def set_online(self) -> None:
        self.state = DeviceState.ONLINE

    def set_offline(self) -> None:
        if self.inflight > 0:
            raise ServiceError(
                f"{self.name}: cannot go offline with {self.inflight} "
                f"requests in flight (drain first)"
            )
        self.state = DeviceState.OFFLINE

    def take_buffered(self) -> list[_Submission]:
        """Reclaim not-yet-doorbelled submissions for migration.

        Work sitting in the batch buffer has not reached the hardware,
        so an unplug can hand it back to the scheduler; anything past
        the doorbell completes on the draining device.  Reverses the
        enqueue-side accounting for each reclaimed submission.
        """
        submissions = self.batcher.drain_buffer()
        for submission in submissions:
            self.inflight -= 1
            self.backlog_ns = max(
                self.backlog_ns - submission.cost.engine_ns, 0.0)
        return submissions

    # -- dispatch interface ----------------------------------------------------

    def can_accept(self) -> bool:
        return self.is_online and self.inflight < self.queue_limit

    def _predict(self, request: OffloadRequest) -> ModeledCost:
        cached = self._cost_cache
        if cached is not None and cached[0] is request:
            return cached[1]
        # Nominal cost: estimate_response_ns and _enter_engine apply
        # the derate, not the prediction.
        model = self.models.get(request.op)
        if model is None:
            model = self.model_for(request.op)
        cost = model.predict(request.nbytes, request.ratio)
        self._cost_cache = (request, cost)
        return cost

    def estimate_response_ns(self, request: OffloadRequest) -> float:
        """Predicted response time if the request were routed here now.

        Queue wait is the predicted engine backlog spread over the
        device's engines, plus this request's own phase budget — the
        cost-model policy minimizes exactly this quantity.  Engine
        terms are scaled by the current derate, so a browned-out device
        prices itself honestly and placement adapts.
        """
        cost = self._predict(request)
        engine_wait = (self.backlog_ns / self._engines
                       + cost.engine_ns) / self.speed_factor
        return (engine_wait + cost.submit_ns + cost.pre_ns + cost.post_ns)

    def enqueue(self, request: OffloadRequest,
                on_complete: Callable[[OffloadRequest, "FleetDevice",
                                       ModeledCost], None] | None = None
                ) -> None:
        if not self.can_accept():
            raise ServiceError(
                f"{self.name}: enqueue rejected "
                f"(state={self.state.value}, inflight={self.inflight}, "
                f"queue limit {self.queue_limit})"
            )
        cost = self._predict(request)
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        self.backlog_ns += cost.engine_ns
        now = self.sim.now
        tel = self.telemetry
        if tel.tracing:
            # Scheduler-side wait: admission stamp to device entry.
            # Every routing path (dispatch, pump, spill, migrate) funnels
            # through here, so this one span covers them all.
            tel.trace.span(tel.tracks["scheduler"], "queue",
                           request.arrival_ns, now, _QUEUE_KEYS,
                           request.trace_id, self.name)
        self.batcher.add(_Submission(request, cost, on_complete,
                                     enqueue_ns=now))

    # -- data plane ------------------------------------------------------------
    #
    # Each request walks the paper's Fig. 2 stages — doorbell, pre,
    # engine, post — as a chain of kernel callbacks, one kernel entry
    # per hop, so no stage pays a generator resume.  The push order of
    # those entries fixes the event interleaving the golden run pins:
    # adding, dropping or reordering a hop is a semantic change.

    def _launch_batch(self, batch: list[_Submission]) -> None:
        # The submission path is serial per device: each batch rings the
        # doorbell once, so batching amortizes the ring across the batch
        # while back-to-back singleton submissions pay it every time.
        # A batch launched while another rings waits its turn.
        self.batches_submitted += 1
        queue = self._batch_queue
        queue.append(batch)
        if len(queue) == 1:
            self.sim.call_later(0.0, partial(self._ring, batch))

    def _ring(self, batch: list[_Submission]) -> None:
        self.sim.call_later(max(s.cost.submit_ns for s in batch),
                            partial(self._rung, batch))

    def _rung(self, batch: list[_Submission]) -> None:
        call_later = self.sim.call_later
        serve = self._serve
        for submission in batch:
            call_later(0.0, partial(serve, submission))
        queue = self._batch_queue
        queue.popleft()
        if queue:
            call_later(0.0, partial(self._ring, queue[0]))

    def _serve(self, submission: _Submission) -> None:
        submission.entry_ns = self.sim.now
        pre_ns = submission.cost.pre_ns
        if pre_ns > 0:
            self.sim.call_later(pre_ns, partial(self._enter_engine,
                                                submission))
        else:
            self._enter_engine(submission)

    def _enter_engine(self, submission: _Submission) -> None:
        request = submission.request
        vf_index = request.tenant % self._vf_count if self._vf_count else 0
        # Derate sampled at engine-entry time: a brown-out mid-run slows
        # queued work too, exactly like a clock throttle would.
        engine_ns = submission.cost.engine_ns / self.speed_factor
        submission.engine_ns = engine_ns
        self.arbiter.submit(VfRequest(
            vf_index=vf_index,
            nbytes=request.nbytes,
            service_ns=engine_ns,
            on_done=partial(self._leave_engine, submission),
        ))

    def _leave_engine(self, submission: _Submission) -> None:
        post_ns = submission.cost.post_ns
        if post_ns > 0:
            self.sim.call_later(post_ns, partial(self._finish, submission))
        else:
            self._finish(submission)

    def _finish(self, submission: _Submission) -> None:
        cost = submission.cost
        request = submission.request
        self.inflight -= 1
        self.backlog_ns = max(self.backlog_ns - cost.engine_ns, 0.0)
        self.completed += 1
        self.throughput.record(request.nbytes, submission.engine_ns)
        tel = self.telemetry
        if tel.tracing:
            # ``dispatch`` covers batching + the shared doorbell ring;
            # ``serve`` is the device's own pre/engine/post pipeline.
            entry_ns = submission.entry_ns
            track = tel.tracks[self.name]
            tel.trace.span(track, "dispatch", submission.enqueue_ns,
                           entry_ns, _DISPATCH_KEYS, request.trace_id)
            tel.trace.span(track, "serve", entry_ns, self.sim.now,
                           _SERVE_KEYS, request.trace_id, request.op,
                           request.tenant)
        if submission.on_complete is not None:
            submission.on_complete(request, self, cost)


def default_fleet() -> list[CdpuDevice]:
    """The paper's full placement mix: one device per Figure 1 column."""
    return [
        CpuSoftwareDevice("deflate"),
        Qat8970(),      # peripheral
        Qat4xxx(),      # on-chip
        DpzipEngine(),  # in-storage
    ]


FleetEntries = Sequence[
    tuple[CdpuDevice, DeviceCostModel | dict[str, DeviceCostModel] | None]
    | CdpuDevice
]


def build_fleet(sim: Simulator,
                fleet: FleetEntries | None = None,
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

