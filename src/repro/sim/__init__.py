"""Discrete-event simulation kernel and statistics collectors."""

from repro.sim.engine import Event, Process, Simulator, Store
from repro.sim.stats import (
    KeyedLatencyRecorder,
    LatencyRecorder,
    ThroughputTracker,
    TimeSeries,
    coefficient_of_variation,
    mean,
    percentile,
)

__all__ = [
    "Event",
    "KeyedLatencyRecorder",
    "LatencyRecorder",
    "Process",
    "Simulator",
    "Store",
    "ThroughputTracker",
    "TimeSeries",
    "coefficient_of_variation",
    "mean",
    "percentile",
]
