"""The :class:`Cluster` session façade: one spec in, one result out.

``Cluster.from_spec(spec)`` assembles the whole serving stack a
:class:`~repro.cluster.spec.ClusterSpec` describes — simulator, fleet
(with calibrated per-op cost models), the
:class:`~repro.service.scheduler.SchedulerCore` that serves it with
its admission controller, optional block-store tier, fleet controller
with the reconfiguration schedule armed — and hands out client handles
(:meth:`Cluster.open_loop`, :meth:`Cluster.closed_loop`,
:meth:`Cluster.store_client`), each submitting straight to that core.
:meth:`Cluster.run` drives the simulation to completion and returns
the unified :class:`~repro.cluster.result.RunResult`.

The run plumbing a federation shares with a cluster lives here too:
the simulator factory (:func:`new_simulator`) and the one run driver
(:func:`drive`) both ``Cluster.run`` and ``Federation.run`` call.  It
checks the metrics interval, arms the sampler, starts the clients,
flushes and drains the schedulers, and, for a profiled run, wraps
:data:`PROFILED_SPANS` on their classes for the run's duration.

Device cost-model calibration runs the real codecs, so it is by far
the most expensive part of building a cluster; calibrated models are
cached process-wide keyed by (device kind, parameters, op) — a sweep
building hundreds of clusters from specs calibrates each distinct
device exactly once, and all of a device's uncached ops share one
measurement pass (each sample is compressed once; the decompress fit
reuses that payload).  Identical fleet members share one model per op,
so each model's per-size prediction memo warms once per process.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ClusterError, ClusterSpecError, TelemetryError
from repro.hw.cpu import CpuSoftwareDevice
from repro.hw.dpzip import DpzipEngine
from repro.hw.engine import CdpuDevice
from repro.hw.qat import Qat4xxx, Qat8970
from repro.cluster.clients import (
    ClosedLoopClient,
    ClusterClient,
    OpenLoopClient,
    StoreClient,
)
from repro.cluster.result import RunResult
from repro.cluster.spec import ClusterSpec, DeviceSpec
from repro.profiling.powermeter import PowerMeter
from repro.service.admission import AdmissionController
from repro.service.control import FleetController
from repro.service.fleet import build_fleet
from repro.service.model import DeviceCostModel
from repro.service.request import OpenLoopStream, SloClass
from repro.service.scheduler import SchedulerCore
from repro.sim.engine import Simulator
from repro.store.cache import BlockCache
from repro.store.store import CompressedBlockStore
from repro.telemetry import (
    DISABLED,
    MetricsRegistry,
    SloObjective,
    Telemetry,
    TraceRecorder,
    WallClockProfiler,
)
from repro.workloads.mixed import MixedStream

#: Maps each declarable device kind to its hw-layer constructor.
_DEVICE_BUILDERS: dict[str, Callable[[DeviceSpec], CdpuDevice]] = {
    "cpu": lambda spec: CpuSoftwareDevice(spec.algorithm,
                                          threads=spec.threads),
    "qat8970": lambda spec: Qat8970(),
    "qat4xxx": lambda spec: Qat4xxx(),
    "dpzip": lambda spec: DpzipEngine(),
}

#: Process-wide calibration cache: (DeviceSpec.cache_key(), op) -> model.
_MODEL_CACHE: dict[tuple, DeviceCostModel] = {}


def build_device(spec: DeviceSpec) -> CdpuDevice:
    """Construct the hw-layer device a :class:`DeviceSpec` names."""
    builder = _DEVICE_BUILDERS.get(spec.kind)
    if builder is None:
        raise ClusterSpecError(
            f"unknown device kind {spec.kind!r}; "
            f"known: {sorted(_DEVICE_BUILDERS)}"
        )
    device = builder(spec)
    if spec.name is not None:
        device.name = spec.name
    return device


def calibrated_models(spec: DeviceSpec, device: CdpuDevice,
                      ops: tuple[str, ...]) -> dict[str, DeviceCostModel]:
    """Per-op cost models for ``device``, via the process-wide cache.

    The ops missing from the cache are calibrated together, in one
    measurement pass over ``device``.
    """
    key = spec.cache_key()
    missing = tuple(op for op in ops if (key, op) not in _MODEL_CACHE)
    if missing:
        for op, model in DeviceCostModel.calibrate(device,
                                                   ops=missing).items():
            _MODEL_CACHE[(key, op)] = model
    return {op: _MODEL_CACHE[(key, op)] for op in ops}


def new_simulator(sanitize: bool | None = None) -> Simulator:
    """A fresh simulator for one session.

    ``sanitize=True`` builds a
    :class:`~repro.analyzers.runtime.SanitizedSimulator`, which
    validates engine invariants while keeping results byte-identical;
    ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
    """
    if sanitize is None:
        from repro.analyzers.runtime import sanitize_from_env
        sanitize = sanitize_from_env()
    if sanitize:
        from repro.analyzers.runtime import SanitizedSimulator
        return SanitizedSimulator()
    return Simulator()


#: (class, method, section) a profiled run bills to each host-time
#: section; :func:`drive` installs it for the run's duration.  Same
#: shape as the benchmark tracer's span table.
PROFILED_SPANS = (
    (SchedulerCore, "submit", "scheduler"),
    (SchedulerCore, "pump", "scheduler"),
    (SchedulerCore, "_record_completion", "scheduler"),
    (CompressedBlockStore, "get", "store"),
    (CompressedBlockStore, "put", "store"),
    (TraceRecorder, "span", "telemetry"),
    (TraceRecorder, "instant", "telemetry"),
    (MetricsRegistry, "sample", "telemetry"),
)


def _arm_sampler(sim: Simulator, registry: MetricsRegistry,
                 horizon: float) -> None:
    """Tick ``registry`` every interval until the measurement window ends.

    Bounded by ``horizon`` so the simulation's event queue still
    drains once the clients stop submitting.  Starts with a zero-delay
    hop, so each tick keeps its place among same-instant entries.
    """
    interval = registry.interval_ns

    def arm() -> None:
        if sim.now + interval <= horizon:
            sim.call_later(interval, tick)

    def tick() -> None:
        registry.sample(sim.now)
        arm()

    sim.call_later(0.0, arm)


def drive(sim: Simulator, schedulers: list[SchedulerCore],
          clients: list[ClusterClient], metrics: MetricsRegistry | None,
          register_gauges: Callable[[], None], *,
          profiler: WallClockProfiler | None = None,
          stores: tuple[CompressedBlockStore, ...] = ()) -> float:
    """Run ``clients`` against ``schedulers`` to completion.

    The one run path of a cluster and of a federation.  The
    measurement window (goodput accounting) is the longest client
    duration, which this returns; backlog drained after the last
    client stops submitting completes but does not inflate goodput.
    Gauges are registered and the sampler armed before any client
    starts; when the last client finishes, every scheduler flushes
    its partial batches and enters drain mode.  A ``profiler`` bills
    :data:`PROFILED_SPANS` to its sections for the run, under an
    ``engine`` section that owns the whole window.
    """
    horizon = max(client.duration_ns for client in clients)
    if metrics is not None and metrics.interval_ns > horizon:
        raise TelemetryError(
            f"TelemetrySpec.metrics_interval_ns "
            f"({metrics.interval_ns:g} ns) exceeds the run horizon "
            f"({horizon:g} ns); no sample would ever be taken — "
            f"shorten the interval or lengthen the run"
        )
    for scheduler in schedulers:
        scheduler.measure_until_ns = horizon
    for store in stores:
        store.measure_until_ns = horizon
    if metrics is not None:
        register_gauges()
        _arm_sampler(sim, metrics, horizon)
    active = len(clients)

    def finished(client: ClusterClient) -> None:
        nonlocal active
        active -= 1
        if active == 0:
            for scheduler in schedulers:
                scheduler.flush()

    if profiler is not None:
        profiler.begin(PROFILED_SPANS)
        profiler.push("engine")
    try:
        for client in clients:
            client.start(on_done=finished)
        sim.run()
        # Defensive: a timer-less batch config can strand closed-loop
        # windows on a partial batch; flush and keep running as long
        # as it makes progress.
        while active > 0:
            before = sim.now
            for scheduler in schedulers:
                scheduler.flush()
            sim.run()
            if sim.now == before:
                break
    finally:
        if profiler is not None:
            profiler.pop()
            profiler.end()
    # Sanitized runs audit waiter queues once the drain settles; a
    # plain Simulator has no finish() and skips this entirely.
    finish = getattr(sim, "finish", None)
    if finish is not None:
        finish()
    return horizon


class Cluster:
    """A live serving cluster: simulator, fleet, scheduler, clients.

    Build one from a spec (:meth:`from_spec`), or wrap pre-built parts
    (the constructor) for fleets a spec cannot express, such as stub
    devices in unit tests.  Attach one or more clients, then call
    :meth:`run` exactly once.
    """

    def __init__(self, sim: Simulator, scheduler: SchedulerCore,
                 store: CompressedBlockStore | None = None,
                 spec: ClusterSpec | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.store = store
        self.spec = spec
        self.controller = FleetController(scheduler)
        if telemetry is None:
            telemetry = (Telemetry(spec.telemetry)
                         if spec is not None and spec.telemetry is not None
                         else DISABLED)
        self.telemetry = telemetry
        if telemetry.enabled:
            self._wire_telemetry()
        self._clients: list[ClusterClient] = []
        self._ran = False
        self._profiler: WallClockProfiler | None = None

    def _wire_telemetry(self) -> None:
        """Hand the live telemetry sink to every instrumented component."""
        scheduler = self.scheduler
        scheduler.telemetry = self.telemetry
        for device in scheduler.devices:
            device.telemetry = self.telemetry
        if scheduler.spill_device is not None:
            scheduler.spill_device.telemetry = self.telemetry
        if self.store is not None:
            self.store.telemetry = self.telemetry

    def enable_profiling(self) -> WallClockProfiler:
        """Attribute host wall-clock to subsystems during :meth:`run`.

        The run bills scheduler submission/dispatch/completion to
        ``scheduler``, store serving to ``store``, span recording and
        metrics sampling to ``telemetry``, and the event loop plus
        anything unclaimed to ``engine`` (:data:`PROFILED_SPANS`,
        wrapped on the classes for the run only).  Must be called
        before :meth:`run`; unprofiled runs execute exactly the
        unwrapped code.
        """
        if self._ran:
            raise ClusterError(
                "cluster already ran; enable profiling before run()"
            )
        if self._profiler is None:
            self._profiler = WallClockProfiler()
        return self._profiler

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: ClusterSpec,
                  *, sanitize: bool | None = None,
                  sim: Simulator | None = None,
                  telemetry: Telemetry | None = None) -> "Cluster":
        """Assemble simulator + fleet + scheduler (+ store) from a spec.

        ``sanitize`` picks the simulator as :func:`new_simulator`
        does (``None``, the default, defers to ``REPRO_SANITIZE``).

        ``sim``/``telemetry`` let a federated session assemble several
        member clusters on one shared simulator and one (scoped)
        telemetry sink; standalone callers leave both ``None``.
        """
        if sim is None:
            sim = new_simulator(sanitize)
        fleet_spec = spec.fleet
        entries = []
        for device_spec in fleet_spec.devices:
            device = build_device(device_spec)
            entries.append((device, calibrated_models(
                device_spec, device, fleet_spec.ops)))
        spill = None
        if fleet_spec.spill is not None:
            device = build_device(fleet_spec.spill)
            spill = (device, calibrated_models(
                fleet_spec.spill, device, fleet_spec.ops))
        members, spill_member = build_fleet(
            sim, entries, spill,
            batch_size=fleet_spec.batch_size,
            batch_timeout_ns=fleet_spec.batch_timeout_ns,
            queue_limit=fleet_spec.queue_limit,
            fair_share_tenants=fleet_spec.fair_share_tenants,
        )
        admission = None
        if spec.admission is not None:
            admission = AdmissionController(
                spill_threshold=spec.admission.spill_threshold,
                shed_threshold=spec.admission.shed_threshold,
                ewma_alpha=spec.admission.ewma_alpha,
            )
        scheduler = SchedulerCore(sim, members, spec.policy,
                                  admission=admission,
                                  spill_device=spill_member,
                                  pending_limit=spec.pending_limit)
        store = None
        if spec.store is not None:
            store_spec = spec.store
            store = CompressedBlockStore(
                sim, scheduler,
                BlockCache(store_spec.cache_blocks, store_spec.ghost_blocks),
                block_bytes=store_spec.block_bytes,
                segment_bytes=store_spec.segment_bytes,
                read_slo=store_spec.read_slo.to_class(),
                write_slo=store_spec.write_slo.to_class(),
            )
        cluster = cls(sim, scheduler, store=store, spec=spec,
                      telemetry=telemetry)
        cluster._arm_reconfiguration(spec)
        return cluster

    @classmethod
    def from_json(cls, text: str) -> "Cluster":
        return cls.from_spec(ClusterSpec.from_json(text))

    def _arm_reconfiguration(self, spec: ClusterSpec) -> None:
        if spec.power_budget_w is not None:
            self.controller.power_cap(spec.power_budget_w)
        for event in spec.reconfig:
            if event.action != "power-cap":
                # Resolve the target now, so a name no member carries
                # fails the build instead of the run at ``at_ns``.
                self.controller._find(event.device)
            self.controller.at(event.at_ns, self._reconfig_action(event))

    def _reconfig_action(self, event) -> Callable[[], Any]:
        controller = self.controller
        if event.action == "brown-out":
            return lambda: controller.brown_out(event.device,
                                                event.speed_factor)
        if event.action == "restore":
            return lambda: controller.restore(event.device)
        if event.action == "unplug":
            return lambda: controller.unplug(event.device, drain=event.drain)
        return lambda: controller.power_cap(event.budget_w)

    # -- stream defaults -------------------------------------------------------

    def default_slo_mix(self) -> tuple[tuple[SloClass, float], ...] | None:
        """The spec's SLO mix as live ``(class, weight)`` pairs."""
        if self.spec is None or self.spec.slo_mix is None:
            return None
        return tuple((share.slo.to_class(), share.weight)
                     for share in self.spec.slo_mix)

    # -- client handles --------------------------------------------------------

    def _attach(self, client: ClusterClient) -> ClusterClient:
        if self._ran:
            raise ClusterError(
                "cluster already ran; build a new one for another run"
            )
        if any(existing.name == client.name for existing in self._clients):
            raise ClusterError(f"duplicate client name {client.name!r}")
        self._clients.append(client)
        return client

    def open_loop(self, stream: OpenLoopStream | None = None,
                  name: str = "open-loop",
                  **stream_kwargs) -> OpenLoopClient:
        """Attach an open-loop client.

        Pass a prebuilt :class:`OpenLoopStream`, or stream keyword
        arguments (``offered_gbps``, ``duration_ns``, ...); the latter
        default ``slo_mix`` to the spec's mix.
        """
        if stream is None:
            stream_kwargs.setdefault("slo_mix", self.default_slo_mix())
            stream = OpenLoopStream(**stream_kwargs)
        elif stream_kwargs:
            raise ClusterError(
                "pass either a stream or stream kwargs, not both"
            )
        client = OpenLoopClient(self.scheduler, stream, name=name)
        self._attach(client)
        return client

    def closed_loop(self, *, window: int, duration_ns: float,
                    think_ns: float = 0.0,
                    name: str = "closed-loop",
                    slo: SloClass | None = None,
                    **client_kwargs) -> ClosedLoopClient:
        """Attach a closed-loop client with an in-flight window."""
        if slo is None:
            mix = self.default_slo_mix()
            # A single-entry spec mix is a class assignment; a larger
            # mix keeps the client's own default (per-connection draws
            # belong to the open-loop shape).
            if mix is not None and len(mix) == 1:
                slo = mix[0][0]
        if slo is not None:
            client_kwargs["slo"] = slo
        client = ClosedLoopClient(self.scheduler, window=window,
                                  duration_ns=duration_ns,
                                  think_ns=think_ns, name=name,
                                  **client_kwargs)
        self._attach(client)
        return client

    def store_client(self, stream: MixedStream | None = None,
                     name: str = "store",
                     window: int | None = None,
                     think_ns: float | None = None,
                     **stream_kwargs) -> StoreClient:
        """Attach a mixed GET/PUT client to the block-store tier.

        ``window``/``think_ns`` select closed-loop serving (at most
        ``window`` operations in flight per connection); both default
        from the spec's ``store.client_window``/``client_think_ns``
        when the cluster was built from a spec declaring them.
        """
        if self.store is None:
            raise ClusterError(
                "this cluster has no block-store tier; add a 'store' "
                "section to the ClusterSpec"
            )
        if any(isinstance(client, StoreClient)
               for client in self._clients):
            # The store tier keeps one shared metrics block; a second
            # client would report fleet-wide totals as its own row.
            raise ClusterError(
                "the store tier already has a client; drive mixed "
                "traffic through one StoreClient per run"
            )
        store_spec = self.spec.store if self.spec is not None else None
        if window is None and store_spec is not None:
            window = store_spec.client_window
        if think_ns is None:
            think_ns = (store_spec.client_think_ns
                        if store_spec is not None else 0.0)
        if stream is None:
            stream_kwargs.setdefault("block_bytes", self.store.block_bytes)
            stream = MixedStream(**stream_kwargs)
        elif stream_kwargs:
            raise ClusterError(
                "pass either a stream or stream kwargs, not both"
            )
        client = StoreClient(self.store, stream, name=name,
                             window=window, think_ns=think_ns)
        self._attach(client)
        return client

    # -- running ---------------------------------------------------------------

    def run(self) -> RunResult:
        """Drive every attached client to completion (:func:`drive`)
        and report."""
        if self._ran:
            raise ClusterError(
                "cluster already ran; build a new one for another run"
            )
        if not self._clients:
            raise ClusterError(
                "no clients attached; call open_loop()/closed_loop()/"
                "store_client() before run()"
            )
        self._ran = True
        profiler = self._profiler
        horizon = drive(
            self.sim, [self.scheduler], self._clients,
            self.telemetry.metrics, self._register_default_gauges,
            profiler=profiler,
            stores=(self.store,) if self.store is not None else (),
        )
        telemetry_report = None
        if self.telemetry.enabled:
            telemetry_report = self.telemetry.report()
            telemetry_report.horizon_ns = horizon
            telemetry_report.objectives = self._objectives()
            if profiler is not None:
                telemetry_report.host_sections = list(profiler.sections)
        # A store report carries the service report it was built on;
        # reuse it rather than grouping the completion log again.
        store = None
        if self.store is not None:
            store = self.store.report(duration_ns=horizon)
            service = store.service
        else:
            service = self.scheduler.report(duration_ns=horizon)
        return RunResult(
            duration_ns=horizon,
            service=service,
            store=store,
            clients=[client.row() for client in self._clients],
            telemetry=telemetry_report,
            wall_profile=(profiler.profile()
                          if profiler is not None else None),
        )

    # -- SLO objectives --------------------------------------------------------

    def _objectives(self) -> tuple[SloObjective, ...]:
        """Declared objectives plus the defaults this spec implies."""
        spec = self.spec
        declared: tuple[SloObjective, ...] = ()
        if spec is not None and spec.telemetry is not None:
            declared = spec.telemetry.objectives
        taken = {objective.name for objective in declared}
        defaults = [objective for objective in self._default_objectives()
                    if objective.name not in taken]
        return declared + tuple(defaults)

    def _default_objectives(self) -> list[SloObjective]:
        """Monitors every sampled run gets for free.

        Derived from the spec: an admission shed ceiling always, one
        deadline-miss budget per declared SLO class (the mix's, or the
        store tier's read/write classes), and a draw cap when the spec
        sets a power budget.  A declared objective with the same name
        wins.  All carry ``source="default"`` so a column that never
        materialises is an info finding, not a failure.
        """
        spec = self.spec
        objectives = [SloObjective(
            name="shed-ceiling", column="shed_rate", limit=0.0,
            budget=0.02, source="default",
            description="admission control sheds (almost) nothing",
        )]
        slo_names: list[str] = []
        if spec is not None and spec.slo_mix is not None:
            slo_names = [share.slo.name for share in spec.slo_mix]
        elif spec is not None and spec.store is not None:
            slo_names = [spec.store.read_slo.name,
                         spec.store.write_slo.name]
        for name in dict.fromkeys(slo_names):
            objectives.append(SloObjective(
                name=f"miss-{name}", column=f"miss_{name}", limit=0.1,
                budget=0.05, source="default",
                description=f"{name} deadline-miss rate under 10%",
            ))
        if spec is not None and spec.power_budget_w is not None:
            objectives.append(SloObjective(
                name="power-cap", column="power_w",
                limit=spec.power_budget_w, budget=0.02,
                source="default",
                description="fleet draw honors the power budget",
            ))
        return objectives

    # -- telemetry sampling ----------------------------------------------------

    def _fleet_keyed(self) -> list[tuple[str, Any]]:
        """Every fleet member (spill last) with unique gauge keys."""
        scheduler = self.scheduler
        devices = list(scheduler.devices)
        if scheduler.spill_device is not None:
            devices.append(scheduler.spill_device)
        keyed: list[tuple[str, Any]] = []
        seen: dict[str, int] = {}
        for device in devices:
            count = seen.get(device.name, 0)
            seen[device.name] = count + 1
            key = device.name if count == 0 \
                else f"{device.name}#{count + 1}"
            keyed.append((key, device))
        return keyed

    def _register_default_gauges(self) -> None:
        """The standard serving time series every sampled run records."""
        registry = self.telemetry.metrics
        scheduler = self.scheduler
        metrics = scheduler.metrics
        registry.gauge("pending", lambda: float(scheduler.pending))
        registry.gauge("utilization", scheduler.utilization)
        registry.gauge("completed", lambda: float(metrics.completed))

        # Per-interval admission rates: fraction of the tick's arrivals
        # that spilled or shed (cumulative counters only ever average
        # away the overload transient the series exists to show).
        previous = {"offered": 0, "spilled": 0, "shed": 0}

        def admission_rates() -> dict:
            offered = metrics.offered - previous["offered"]
            spilled = metrics.spilled - previous["spilled"]
            shed = metrics.shed - previous["shed"]
            previous.update(offered=metrics.offered,
                            spilled=metrics.spilled, shed=metrics.shed)
            return {
                "spill_rate": spilled / offered if offered else 0.0,
                "shed_rate": shed / offered if offered else 0.0,
            }
        registry.multi(admission_rates)

        for key, device in self._fleet_keyed():
            registry.gauge(f"q_{key}",
                           lambda d=device: float(d.inflight))
            registry.gauge(f"util_{key}",
                           lambda d=device: d.inflight / d.queue_limit)

        def slo_miss_rates() -> dict:
            return {f"miss_{name}": stats.miss_rate
                    for name, stats in sorted(metrics.slo.items())}
        registry.multi(slo_miss_rates)

        if self.store is not None:
            cache = self.store.cache
            blockmap = self.store.blockmap
            registry.gauge("hit_rate", lambda: cache.hit_rate)
            registry.gauge("ghost_hit_rate",
                           lambda: cache.ghost_hit_rate)
            registry.gauge("garbage_bytes",
                           lambda: float(blockmap.garbage_bytes))

        meter = PowerMeter()
        fleet = [device for _, device in self._fleet_keyed()]
        registry.gauge("power_w", lambda: meter.fleet_draw_w(fleet))
