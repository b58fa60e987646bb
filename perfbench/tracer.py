"""Host-time spans around calls into the program's layers.

Used only by a traced run.  :meth:`Tracer.install` replaces selected
methods on the program's classes with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so untraced
repetitions execute the unmodified code.  The wrappers go on the
classes, not on instances, because the hot classes are slotted.

Spans with the same name add up in one bucket of ``[calls, self_ns,
total_ns]``.  A span's self time is its duration minus the time covered
by the spans opened inside it.  The root span is the measured call
itself; its self time is the part covered by no layer span.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro
from repro.cluster import Cluster
from repro.federation.router import GlobalRouter
from repro.service.fleet import Batcher, FleetDevice
from repro.service.offload import OffloadService
from repro.service.scheduler import SchedulerCore
from repro.sim.engine import Process, Simulator
from repro.store.store import CompressedBlockStore
from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TraceRecorder

#: Layer of a simulation process, by the source file of its generator
#: relative to the package.  Process code runs inside the event loop, so
#: without this split the kernel's span would absorb the data plane and
#: the clients.
PROCESS_LAYERS = (
    ("service/", "service.dataplane"),
    ("virt/", "service.dataplane"),
    ("cluster/clients.py", "clients"),
    ("store/", "store.serve"),
    ("cluster/session.py", "telemetry"),
    ("federation/session.py", "telemetry"),
)
PACKAGE = Path(repro.__file__).resolve().parent

#: (class, method, span name) wrapped for a traced repetition.
RUN_SPANS = (
    (SchedulerCore, "submit", "service.submit"),
    (SchedulerCore, "pump", "service.pump"),
    (SchedulerCore, "_record_completion", "service.complete"),
    (FleetDevice, "enqueue", "service.enqueue"),
    (FleetDevice, "estimate_response_ns", "service.predict"),
    (Batcher, "flush_now", "service.dataplane"),
    (CompressedBlockStore, "get", "store.get"),
    (CompressedBlockStore, "put", "store.put"),
    (GlobalRouter, "submit", "federation.router.submit"),
    (TraceRecorder, "span", "telemetry"),
    (TraceRecorder, "instant", "telemetry"),
    (MetricsRegistry, "sample", "telemetry"),
    (Telemetry, "report", "telemetry"),
    (Cluster, "from_spec", "cluster.build"),
    (OffloadService, "report", "report"),
    (CompressedBlockStore, "report", "report"),
)


class Tracer:
    """Self-time buckets fed by class-level method wrappers."""

    def __init__(self) -> None:
        self.buckets: dict[str, list] = {}
        #: Child-time accumulator of each open span; index 0 is the root.
        self._stack = [0]
        self._patches: list[tuple] = []
        #: Every simulator that ran under a span, to count its events.
        self.sims: dict[int, Simulator] = {}

    def bucket(self, name: str) -> list:
        return self.buckets.setdefault(name, [0, 0, 0])

    def _timed(self, function, name: str):
        acc = self.bucket(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                acc[0] += 1
                acc[1] += elapsed - child
                acc[2] += elapsed
        return wrapper

    def _patch(self, owner: type, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: type, attr: str, name: str) -> None:
        descriptor = owner.__dict__[attr]
        if isinstance(descriptor, classmethod):
            replacement = classmethod(self._timed(descriptor.__func__,
                                                  name))
        else:
            replacement = self._timed(descriptor, name)
        self._patch(owner, attr, replacement)

    def _wrap_process_steps(self) -> None:
        """Bill each generator resume to its process's layer."""
        original = Process.__dict__["_step"]
        timers = {layer: self._timed(original, layer)
                  for layer in {layer for _, layer in PROCESS_LAYERS}
                  | {"other"}}
        by_code: dict = {}

        def timer_for(code):
            path = Path(code.co_filename).resolve()
            source = (path.relative_to(PACKAGE).as_posix()
                      if path.is_relative_to(PACKAGE) else "")
            layer = next((layer for prefix, layer in PROCESS_LAYERS
                          if source.startswith(prefix)), "other")
            by_code[code] = timers[layer]
            return timers[layer]

        def step(process, value):
            code = process._generator.gi_code
            return (by_code.get(code) or timer_for(code))(process, value)
        self._patch(Process, "_step", step)

    def _wrap_sim_run(self) -> None:
        """Note every simulator that runs, then time it as ``sim``."""
        timed = self._timed(Simulator.__dict__["run"], "sim")
        sims = self.sims

        def run(sim, *args, **kwargs):
            sims[id(sim)] = sim
            return timed(sim, *args, **kwargs)
        self._patch(Simulator, "run", run)

    def install(self) -> None:
        """Wrap every layer a repetition calls into."""
        for owner, attr, name in RUN_SPANS:
            self.wrap(owner, attr, name)
        self._wrap_sim_run()
        self._wrap_process_steps()

    def uninstall(self) -> None:
        for owner, attr, descriptor in reversed(self._patches):
            setattr(owner, attr, descriptor)
        self._patches.clear()

    def measure(self, function):
        """Run ``function`` as the root span; returns (result, ns, root self ns)."""
        self._stack[:] = [0]
        start = time.perf_counter_ns()
        result = function()
        elapsed = time.perf_counter_ns() - start
        return result, elapsed, elapsed - self._stack[0]

    def events(self) -> int:
        """Heap entries scheduled by every simulator seen so far.

        The kernel draws one sequence number per entry it schedules, so
        the next number is the count.  Call once, after the runs.
        """
        return sum(next(sim._sequence) for sim in self.sims.values())
