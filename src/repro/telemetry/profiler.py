"""Host wall-clock profiler: where does real time go per subsystem?

The simulator's clock is virtual; this profiler measures the *host*
clock, attributing wall time to coarse subsystems — ``engine`` (the
event loop plus everything not otherwise claimed), ``scheduler``
(submission-path dispatch and completion bookkeeping), ``store``
(GET/PUT serving) and ``telemetry`` (span recording and metrics
sampling).  It is the measurement ROADMAP item 2 (hot-path speedup)
asks for before any refactor: know where the wall-clock goes, then
make it cheap.

Accounting is self-time on an explicit section stack: entering a
section starts its clock, entering a nested section pauses the
parent, so the per-subsystem totals are disjoint and sum to the
profiled window — which is what lets the exported host-time track sit
next to the simulated-time tracks in one Chrome trace without double
counting.

The profiler is strictly opt-in (``Cluster.enable_profiling()`` /
``--profile``): it wires itself in by wrapping bound methods on the
live objects, so an unprofiled run executes exactly the code it
always did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.telemetry.trace import TraceRecorder

#: Recorded host-span cap: totals are always complete, but only this
#: many individual section intervals are kept for the trace's host
#: track (the head of the run; the counter reports the rest).
HOST_SECTION_CAP = 4096


@dataclass(slots=True)
class WallClockProfile:
    """Pure-data profile summary surfaced on ``RunResult.wall_profile``."""

    total_s: float
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    sections_recorded: int = 0
    sections_dropped: int = 0

    @property
    def attributed_s(self) -> float:
        """Wall seconds claimed by instrumented sections."""
        return sum(self.self_s.values())

    @property
    def coverage(self) -> float:
        """Attributed fraction of the profiled window (target >= 0.9)."""
        if self.total_s <= 0:
            return 0.0
        return self.attributed_s / self.total_s

    def rows(self) -> list[dict]:
        """Per-subsystem table rows, largest share first."""
        ordered = sorted(self.self_s.items(),
                         key=lambda item: (-item[1], item[0]))
        rows = [{
            "subsystem": name,
            "self_ms": seconds * 1e3,
            "share": seconds / self.total_s if self.total_s else 0.0,
            "calls": self.calls.get(name, 0),
        } for name, seconds in ordered]
        rows.append({
            "subsystem": "(total)",
            "self_ms": self.total_s * 1e3,
            "share": 1.0 if self.total_s else 0.0,
            "calls": sum(self.calls.values()),
        })
        return rows

    def to_text(self) -> str:
        from repro.profiling.report import format_table
        header = (f"wall-clock profile: {self.total_s * 1e3:.1f} ms "
                  f"measured, {self.attributed_s * 1e3:.1f} ms attributed "
                  f"({self.coverage * 100:.1f}% coverage)")
        return header + "\n" + format_table(self.rows(), floatfmt=".3f")


class WallClockProfiler:
    """Self-time section accounting over ``time.perf_counter_ns``.

    ``push(name)``/``pop()`` bracket a section; nested pushes pause the
    enclosing section.  ``begin()``/``end()`` bracket the whole
    profiled window (the run), which :meth:`profile` compares the
    attributed totals against.
    """

    __slots__ = ("_clock", "_stack", "self_ns", "calls", "sections",
                 "section_cap", "sections_dropped", "_origin",
                 "total_ns")

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 section_cap: int = HOST_SECTION_CAP) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: Recorded (name, start_ns, dur_ns) intervals, relative to
        #: ``begin()``, for the trace's host-time track.
        self.sections: list[tuple[str, int, int]] = []
        self.section_cap = section_cap
        self.sections_dropped = 0
        self._origin: int | None = None
        self.total_ns = 0

    def begin(self) -> None:
        self._origin = self._clock()

    def end(self) -> None:
        if self._origin is None:
            return
        self.total_ns = self._clock() - self._origin

    def push(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])

    def pop(self) -> None:
        name, start, child_ns = self._stack.pop()
        elapsed = self._clock() - start
        self.self_ns[name] = self.self_ns.get(name, 0) \
            + elapsed - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed
        if len(self.sections) < self.section_cap:
            origin = self._origin if self._origin is not None else start
            self.sections.append((name, start - origin, elapsed))
        else:
            self.sections_dropped += 1

    def section(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a named section."""
        self.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.pop()

    def wrap(self, obj, attr: str, name: str) -> None:
        """Instance-wrap ``obj.attr`` so calls run inside ``name``."""
        fn = getattr(obj, attr)

        def wrapped(*args, **kwargs):
            self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        setattr(obj, attr, wrapped)

    def profile(self) -> WallClockProfile:
        """The pure-data summary of everything accounted so far."""
        return WallClockProfile(
            total_s=self.total_ns / 1e9,
            self_s={name: ns / 1e9
                    for name, ns in sorted(self.self_ns.items())},
            calls=dict(sorted(self.calls.items())),
            sections_recorded=len(self.sections),
            sections_dropped=self.sections_dropped,
        )


class ProfiledTraceRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that bills span recording to the
    profiler's ``telemetry`` section.

    Swapped in for a live recorder by ``Cluster.enable_profiling()``
    (:meth:`wrapping`): it takes over the recorder's ring and counters,
    so the run records into the same buffer.  The recorder is slotted,
    so per-instance wrapping is impossible — subclass override is the
    supported seam, and unprofiled runs keep the plain recorder.
    """

    __slots__ = ("profiler",)

    @classmethod
    def wrapping(cls, recorder: TraceRecorder,
                 profiler: WallClockProfiler) -> "ProfiledTraceRecorder":
        wrapped = cls.__new__(cls)
        wrapped.capacity = recorder.capacity
        wrapped.recorded = recorder.recorded
        wrapped._ring = recorder._ring
        wrapped.profiler = profiler
        return wrapped

    def span(self, track, name, start_ns, end_ns, keys=None,
             *values) -> None:
        profiler = self.profiler
        profiler.push("telemetry")
        try:
            TraceRecorder.span(self, track, name, start_ns, end_ns, keys,
                               *values)
        finally:
            profiler.pop()

    def instant(self, track, name, ts_ns, keys=None, *values) -> None:
        profiler = self.profiler
        profiler.push("telemetry")
        try:
            TraceRecorder.instant(self, track, name, ts_ns, keys, *values)
        finally:
            profiler.pop()
