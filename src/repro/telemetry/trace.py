"""Per-request trace spans: flight recorder + Chrome trace export.

The recorder keeps a bounded ring buffer of *trace events* — complete
spans (``ph="X"``), instants (``ph="i"``) — stamped in simulated time.
Call sites pass timestamps explicitly (they all hold the simulator),
so the recorder itself is pure data and pickles cleanly through the
sweep worker pool.

Export follows the Chrome trace-event JSON format (the ``traceEvents``
array form), which ``chrome://tracing`` and https://ui.perfetto.dev
both open directly.  Timestamps are microseconds of *simulated* time;
each instrumented component (scheduler, devices, store, control plane)
renders as its own named track via ``thread_name`` metadata events.
"""

from __future__ import annotations

import collections
import json
import math
from collections.abc import Iterator, Sequence
from typing import Any, Iterable

from repro.errors import TelemetryError

#: Ring-buffer capacity a :class:`TraceRecorder` gets by default —
#: roughly 40k requests' worth of spans, plenty for the example runs.
DEFAULT_TRACE_CAPACITY = 262_144

#: Event-phase codes the exporter emits (subset of the trace format).
_PHASES = ("X", "i", "M", "C")


def _event(record: tuple) -> tuple:
    """The ``(ph, track, name, ts_ns, dur_ns, args)`` event a ring
    record stores, with a fresh ``args`` dict."""
    keys = record[5]
    if keys is None:
        return record  # an argument-less record is already the event
    return (*record[:5], dict(zip(keys, record[6:])))


class TraceEvents(Sequence):
    """Read-only sequence of ``(ph, track, name, ts_ns, dur_ns, args)``.

    Backed by the recorder's flat records, one tuple per event:
    ``(ph, track, name, ts_ns, dur_ns, keys, *values)``, where ``keys``
    is the argument dict's key tuple (``None`` for no arguments).
    Indexing and iteration rebuild the 6-tuples, each with a fresh
    ``args`` dict; equality compares the rebuilt events.
    """

    __slots__ = ("records",)

    def __init__(self, records: Sequence[tuple] = ()) -> None:
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> tuple:
        if isinstance(index, slice):
            raise TypeError("TraceEvents does not support slicing")
        return _event(self.records[index])

    def __iter__(self) -> Iterator[tuple]:
        return map(_event, self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvents):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        return TraceEvents, (list(self.records),)


class TraceRecorder:
    """Bounded flight recorder of simulated-time trace events.

    The ring is one ``deque(maxlen=capacity)`` of flat records, read
    through :attr:`events`.  A record holds no dict: the argument
    values sit inline after the dict's key tuple, and each distinct
    key tuple is stored once per recorder, so an event costs one tuple.
    Recording never allocates beyond the cap, and under overflow the
    *oldest* events fall out first — the flight-recorder discipline
    (the tail of a run is what you debug).
    """

    __slots__ = ("capacity", "recorded", "_ring", "_keys")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise TelemetryError(
                f"trace capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._ring: collections.deque = collections.deque(maxlen=capacity)
        self._keys: dict[tuple, tuple] = {}
        self.recorded = 0

    @property
    def events(self) -> TraceEvents:
        """Live view of the retained events, oldest first."""
        return TraceEvents(self._ring)

    def snapshot(self) -> TraceEvents:
        """The retained events, copied out of the ring (the records are
        shared, not rebuilt)."""
        return TraceEvents(list(self._ring))

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring buffer."""
        return self.recorded - len(self._ring)

    def span(self, track: str, name: str, start_ns: float,
             end_ns: float, args: dict | None = None) -> None:
        """Record one complete span (``ph="X"``) on ``track``."""
        self.recorded += 1
        dur_ns = end_ns - start_ns
        if dur_ns < 0.0:
            dur_ns = 0.0
        if args is None:
            self._ring.append(("X", track, name, start_ns, dur_ns, None))
        else:
            keys = tuple(args)
            keys = self._keys.setdefault(keys, keys)
            self._ring.append(("X", track, name, start_ns, dur_ns, keys,
                               *args.values()))

    def instant(self, track: str, name: str, ts_ns: float,
                args: dict | None = None) -> None:
        """Record one instant event (``ph="i"``) on ``track``."""
        self.recorded += 1
        if args is None:
            self._ring.append(("i", track, name, ts_ns, 0.0, None))
        else:
            keys = tuple(args)
            keys = self._keys.setdefault(keys, keys)
            self._ring.append(("i", track, name, ts_ns, 0.0, keys,
                               *args.values()))


def trace_document(events: Iterable[tuple], dropped: int = 0,
                   metrics_rows: list[dict] | None = None,
                   alerts: Iterable | None = None,
                   host_sections: Iterable[tuple] | None = None) -> dict:
    """Chrome trace-event JSON document for recorded ``events``.

    ``metrics_rows`` (the sampled time series, if any) are embedded as
    counter events (``ph="C"``) so Perfetto plots queue depth,
    utilization and power draw as tracks alongside the request spans.
    ``alerts`` (fired SLO burn-rate monitors from
    :mod:`repro.telemetry.analysis`) become instants on the control
    track; ``host_sections`` — ``(subsystem, start_ns, dur_ns)``
    host-clock intervals from the wall-clock profiler — render as a
    second process (``pid=2``) so real time sits next to simulated
    time in the same view.
    """
    events = list(events)
    alerts = list(alerts or ())
    host_sections = list(host_sections or ())
    tracks = {event[1] for event in events}
    if alerts:
        tracks.add("control")
    tracks = sorted(tracks)
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    trace_events: list[dict] = []
    for track in tracks:
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": 1,
            "tid": tids[track], "args": {"name": track},
        })
    for ph, track, name, ts_ns, dur_ns, args in events:
        event: dict = {"name": name, "cat": "repro", "ph": ph,
                       "ts": ts_ns / 1000.0, "pid": 1, "tid": tids[track]}
        if ph == "X":
            event["dur"] = dur_ns / 1000.0
        elif ph == "i":
            event["s"] = "t"
        if args:
            event["args"] = args
        trace_events.append(event)
    for row in metrics_rows or ():
        ts_us = row.get("t_ms", 0.0) * 1000.0
        for key, value in row.items():
            if key == "t_ms" or not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or math.isnan(value):
                continue
            trace_events.append({
                "name": key, "cat": "metrics", "ph": "C", "ts": ts_us,
                "pid": 1, "args": {"value": value},
            })
    for alert in alerts:
        trace_events.append({
            "name": f"alert:{alert.objective}", "cat": "alert",
            "ph": "i", "s": "t",
            "ts": alert.window_end_ms * 1000.0,
            "pid": 1, "tid": tids["control"],
            "args": alert.trace_args(),
        })
    if host_sections:
        host_tracks = sorted({section[0] for section in host_sections})
        host_tids = {track: index + 1
                     for index, track in enumerate(host_tracks)}
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": 2,
            "args": {"name": "host-clock"},
        })
        for track in host_tracks:
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 2,
                "tid": host_tids[track], "args": {"name": f"host:{track}"},
            })
        for name, start_ns, dur_ns in host_sections:
            trace_events.append({
                "name": name, "cat": "host", "ph": "X",
                "ts": start_ns / 1000.0, "dur": dur_ns / 1000.0,
                "pid": 2, "tid": host_tids[name],
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-ns", "dropped_events": dropped},
    }


def render_trace(document: dict) -> str:
    """The document as deterministic JSON text (byte-stable per run)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# -- validation ----------------------------------------------------------------


def validate_trace(document: Any) -> dict:
    """Structurally validate a Chrome trace-event document.

    Raises :class:`~repro.errors.TelemetryError` naming the first
    offending event; returns summary counts (events, span events,
    distinct request ids) on success.  This is what the CI smoke job
    runs against an exported ``trace.json``.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise TelemetryError(
            "trace document must be an object with a 'traceEvents' array"
        )
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise TelemetryError("'traceEvents' must be an array")
    spans = 0
    requests: set = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TelemetryError(f"traceEvents[{index}] is not an object")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise TelemetryError(
                    f"traceEvents[{index}] missing required key {key!r}"
                )
        if event["ph"] not in _PHASES:
            raise TelemetryError(
                f"traceEvents[{index}] has unknown phase {event['ph']!r}"
            )
        if event["ph"] != "M" and not isinstance(
                event.get("ts"), (int, float)):
            raise TelemetryError(
                f"traceEvents[{index}] needs a numeric 'ts'"
            )
        if event["ph"] == "X":
            spans += 1
            if not isinstance(event.get("dur"), (int, float)) \
                    or event["dur"] < 0:
                raise TelemetryError(
                    f"traceEvents[{index}] is a span without a "
                    f"non-negative 'dur'"
                )
        req = event.get("args", {}).get("req") \
            if isinstance(event.get("args"), dict) else None
        if req is not None:
            requests.add(req)
    return {"events": len(events), "spans": spans,
            "requests": len(requests)}


def request_phases(document: dict) -> dict[int, set[str]]:
    """Event-name sets per request id (``args.req``) in a document."""
    phases: dict[int, set[str]] = {}
    for event in document.get("traceEvents", ()):
        args = event.get("args")
        if isinstance(args, dict) and "req" in args:
            phases.setdefault(args["req"], set()).add(event["name"])
    return phases


def assert_request_phases(
        document: dict,
        required: tuple[str, ...] = ("admit", "queue", "dispatch",
                                     "complete")) -> int:
    """Every completed request must carry the full span chain.

    Checks each request id with a ``complete`` event for all of
    ``required`` (requests whose early spans fell out of the ring
    buffer are skipped — their ``admit`` is gone by design).  Returns
    the number of fully-chained requests; raises
    :class:`~repro.errors.TelemetryError` when a retained request is
    missing phases or no request completed at all.
    """
    dropped = document.get("otherData", {}).get("dropped_events", 0)
    checked = 0
    for req, names in sorted(request_phases(document).items()):
        if "complete" not in names:
            continue
        missing = [name for name in required if name not in names]
        if missing:
            if dropped:
                continue  # early spans legitimately overwritten
            raise TelemetryError(
                f"request {req} completed but lacks phase(s) {missing}; "
                f"recorded: {sorted(names)}"
            )
        checked += 1
    if checked == 0:
        raise TelemetryError(
            "no completed request carries the full "
            f"{list(required)} span chain"
        )
    return checked
