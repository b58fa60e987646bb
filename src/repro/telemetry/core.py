"""Telemetry façade: one object the serving stack talks to.

Every instrumented component holds a :class:`Telemetry` — by default
the module-level :data:`DISABLED` singleton, whose ``tracing`` flag is
a plain ``False`` attribute.  Hot-path call sites guard with::

    _QUEUE_KEYS = ("req", "device")  # module level, once per call site

    tel = self.telemetry
    if tel.tracing:
        tel.trace.span(tel.tracks["scheduler"], "queue", start_ns,
                       end_ns, _QUEUE_KEYS, request.trace_id, self.name)

so a disabled run pays one attribute load and one branch per hook —
nothing else (asserted by ``benchmarks/test_bench_telemetry.py``) —
and a traced one pays one call into the recorder per event.

Live :class:`Telemetry` objects hold gauge closures and are therefore
*not* shipped across the sweep worker pool; :meth:`Telemetry.report`
extracts a pure-data :class:`TelemetryReport` that pickles cleanly and
rides home on the :class:`~repro.cluster.result.RunResult`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import (
    TraceEvents,
    TraceRecorder,
    render_trace,
    trace_document,
)


@dataclass(slots=True)
class TelemetryReport:
    """Pure-data snapshot of one run's telemetry (picklable).

    ``events`` are the flight-recorder events (a read-only
    :class:`~repro.telemetry.trace.TraceEvents` sequence of
    ``(ph, track, name, ts_ns, dur_ns, args)`` tuples), ``metrics_rows``
    the sampled time series.  Everything downstream — trace export,
    metrics tables, health analysis, determinism comparisons —
    derives from this.  ``objectives``/``horizon_ns`` are stamped by
    the cluster session so burn-rate monitors evaluate identically in
    the parent and in sweep workers; ``host_sections`` are wall-clock
    profiler intervals exported as the trace's host-time track.
    """

    events: TraceEvents = field(default_factory=TraceEvents)
    recorded: int = 0
    dropped: int = 0
    tracing: bool = False
    metrics_rows: list[dict] = field(default_factory=list)
    interval_ns: float | None = None
    horizon_ns: float | None = None
    objectives: tuple = ()
    host_sections: list = field(default_factory=list)

    def alerts(self) -> list:
        """Fired SLO burn-rate alerts for the stamped objectives."""
        from repro.telemetry.analysis import evaluate_objectives
        return evaluate_objectives(self.metrics_rows, self.objectives,
                                   horizon_ns=self.horizon_ns)

    def trace_document(self) -> dict:
        """Chrome trace-event document (spans + metric counters +
        alert instants + the host-time track, when present)."""
        return trace_document(self.events, dropped=self.dropped,
                              metrics_rows=self.metrics_rows,
                              alerts=self.alerts(),
                              host_sections=self.host_sections)

    def trace_json(self) -> str:
        """The trace document as deterministic JSON text."""
        return render_trace(self.trace_document())

    def write_trace(self, path: str) -> str:
        """Write ``trace.json`` (Perfetto-openable) to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.trace_json())
        return path

    def metrics_json(self) -> str:
        """The sampled time series as deterministic JSON text."""
        return json.dumps(self.metrics_rows, sort_keys=True,
                          separators=(",", ":"))


class Telemetry:
    """Trace recorder + metrics registry behind one guard flag.

    Constructed from a :class:`~repro.cluster.spec.TelemetrySpec` (or
    bare keyword arguments in tests).  With neither tracing nor a
    metrics interval requested, the instance is inert: ``tracing`` is
    ``False``, ``metrics`` is ``None``, and ``enabled`` is ``False``.

    ``tracks`` maps a component's track name to the name it is
    recorded under: itself here, ``<prefix>/<track>`` in a
    :class:`ScopedTelemetry`.
    """

    __slots__ = ("tracing", "trace", "metrics", "tracks", "_next_id")

    def __init__(self, spec=None, *, tracing: bool = False,
                 trace_capacity: int | None = None,
                 metrics_interval_ns: float | None = None) -> None:
        if spec is not None:
            tracing = spec.trace
            trace_capacity = spec.trace_capacity
            metrics_interval_ns = spec.metrics_interval_ns
        self.tracing = bool(tracing)
        self.trace = None
        if self.tracing:
            self.trace = TraceRecorder(trace_capacity) \
                if trace_capacity else TraceRecorder()
        self.metrics = None
        if metrics_interval_ns is not None:
            self.metrics = MetricsRegistry(metrics_interval_ns)
        self.tracks = _Tracks("")
        self._next_id = 0

    @property
    def enabled(self) -> bool:
        return self.tracing or self.metrics is not None

    def next_id(self) -> int:
        """Fresh trace id; monotonic in submission order, so ids are
        deterministic for a given spec + seed regardless of workers."""
        self._next_id += 1
        return self._next_id

    # -- scoping ---------------------------------------------------------------

    def scoped(self, prefix: str) -> "Telemetry":
        """A view of this sink that prefixes every track with
        ``prefix/``.

        Federated sessions hand each member cluster a scoped view of
        the federation-level sink, so one merged trace carries every
        cluster's spans on disjoint ``<cluster>/<track>`` tracks.
        Disabled sinks scope to :data:`DISABLED` (nothing to prefix);
        ids and reports stay owned by the root.
        """
        if not self.enabled:
            return DISABLED
        return ScopedTelemetry(self, prefix)

    # -- extraction ------------------------------------------------------------

    def report(self) -> TelemetryReport:
        """Pure-data report of everything recorded so far."""
        return TelemetryReport(
            events=self.trace.snapshot() if self.trace else TraceEvents(),
            recorded=self.trace.recorded if self.trace else 0,
            dropped=self.trace.dropped if self.trace else 0,
            tracing=self.tracing,
            metrics_rows=list(self.metrics.rows) if self.metrics else [],
            interval_ns=self.metrics.interval_ns if self.metrics else None,
        )


class _Tracks(dict):
    """``track -> prefix + track``, each name built once and interned
    (the identity for the root's empty prefix)."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, track: str) -> str:
        scoped = self[track] = sys.intern(self.prefix + track)
        return scoped


class ScopedTelemetry(Telemetry):
    """A track-prefixing view over a root :class:`Telemetry`.

    Shares the root's recorder, registry and id counter (ids stay
    globally monotonic across every scope); only :attr:`tracks`
    differs.  Each prefixed track name is built once and interned, so
    every span on a track shares one string (also across scope views
    that resolve to the same prefix).  Build via
    :meth:`Telemetry.scoped`.
    """

    __slots__ = ("_root", "_prefix")

    def __init__(self, root: Telemetry, prefix: str) -> None:
        # Deliberately no super().__init__: every slot but ``tracks``
        # is aliased to the root so the hot-path guards read the same
        # flags.
        self._root = root
        self._prefix = f"{prefix}/"
        self.tracks = _Tracks(self._prefix)
        self.tracing = root.tracing
        self.trace = root.trace
        self.metrics = root.metrics

    def next_id(self) -> int:
        return self._root.next_id()

    def scoped(self, prefix: str) -> "Telemetry":
        return self._root.scoped(f"{self._prefix}{prefix}")

    def report(self) -> TelemetryReport:
        return self._root.report()


#: Shared no-op instance every component defaults to.  Its ``tracing``
#: flag is permanently False and it owns no recorder or registry, so a
#: run without a TelemetrySpec records nothing and allocates nothing.
DISABLED = Telemetry()
