"""Discrete-event simulation kernel and statistics collectors."""

from repro.sim.engine import Event, Process, Simulator
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
    "ThroughputTracker",
    "TimeSeries",
    "coefficient_of_variation",
    "mean",
    "percentile",
]
