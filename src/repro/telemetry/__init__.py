"""repro.telemetry — request tracing, metrics, and run-health analysis.

Spans and instants land in a bounded flight recorder and export as
Chrome/Perfetto trace-event JSON; counters and gauges sample on a
simulated-time interval into a flat time series.  Both are zero-cost
when disabled: components default to the inert :data:`DISABLED`
façade and guard every hook on its ``tracing`` flag.

The analysis layer (:mod:`repro.telemetry.analysis`) interprets the
raw data: declarative :class:`SloObjective` monitors burn-rate-
evaluated over the metrics series into :class:`Alert` records, plus
the scanner-driven :class:`HealthReport` pass/warn/fail verdict.  The
wall-clock profiler (:mod:`repro.telemetry.profiler`) attributes
*host* time to subsystems through class-level, run-scoped method
wrappers and exports a host-time track next to the simulated-time
tracks.
"""

from repro.telemetry.analysis import (
    DEFAULT_BURN_WINDOWS,
    Alert,
    BurnWindow,
    Finding,
    HealthReport,
    SloObjective,
    build_health,
    evaluate_objectives,
)
from repro.telemetry.core import (
    DISABLED,
    ScopedTelemetry,
    Telemetry,
    TelemetryReport,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.profiler import WallClockProfile, WallClockProfiler
from repro.telemetry.trace import (
    DEFAULT_TRACE_CAPACITY,
    TraceEvents,
    TraceRecorder,
    assert_request_phases,
    render_trace,
    request_phases,
    trace_document,
    validate_trace,
)

__all__ = [
    "DISABLED",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_TRACE_CAPACITY",
    "Alert",
    "BurnWindow",
    "Counter",
    "Finding",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "ScopedTelemetry",
    "SloObjective",
    "Telemetry",
    "TelemetryReport",
    "TraceEvents",
    "TraceRecorder",
    "WallClockProfile",
    "WallClockProfiler",
    "assert_request_phases",
    "build_health",
    "evaluate_objectives",
    "render_trace",
    "request_phases",
    "trace_document",
    "validate_trace",
]
