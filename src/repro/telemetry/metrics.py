"""Simulated-time metrics: counters, gauges, histograms, a registry.

The registry samples every registered instrument on a fixed
simulated-time interval (the session's run driver,
:func:`repro.cluster.session.drive`, arms the sampler), producing one
flat row per tick.  Rows are plain dicts in insertion order, so the
series prints with :func:`repro.profiling.report.format_table`,
exports to CSV, and round-trips through the sweep worker pool
unchanged.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import TelemetryError


class Counter:
    """Monotonic event count; sampling reports the running total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed distribution of non-negative observations.

    Buckets grow geometrically (factor 2 from ``least``), so a fixed,
    small bucket array covers nanoseconds through seconds.  Quantiles
    come from linear interpolation inside the matched bucket — coarse,
    but stable and allocation-free on the observe path.
    """

    __slots__ = ("name", "least", "counts", "count", "total")

    BUCKETS = 64

    def __init__(self, name: str, least: float = 1.0) -> None:
        if least <= 0:
            raise TelemetryError(
                f"histogram 'least' must be > 0, got {least}"
            )
        self.name = name
        self.least = least
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise TelemetryError(
                f"histogram {self.name!r} observed negative value {value}"
            )
        index = 0 if value < self.least else min(
            int(math.log2(value / self.least)) + 1, self.BUCKETS - 1)
        self.counts[index] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, fraction: float) -> float:
        """Approximate ``fraction`` quantile (0..1); NaN when empty."""
        if not 0.0 <= fraction <= 1.0:
            raise TelemetryError(
                f"quantile fraction must be in [0, 1], got {fraction}"
            )
        if self.count == 0:
            return math.nan
        rank = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                low = 0.0 if index == 0 \
                    else self.least * (2.0 ** (index - 1))
                high = self.least * (2.0 ** index)
                inside = max(rank - seen, 0.0) / bucket_count
                return low + (high - low) * inside
            seen += bucket_count
        return self.least * (2.0 ** (self.BUCKETS - 1))


class MetricsRegistry:
    """Named instruments plus the sampled time series they produce.

    Gauges are zero-argument callables evaluated at each tick — the
    cheap hook points the serving stack exposes (queue depth, inflight
    count, cache hit rate) without telemetry code on the hot path.  A
    *multi* gauge returns a whole ``{column: value}`` dict per tick,
    for families whose membership is dynamic (per-SLO-class miss
    rates).  Registration order fixes column order, which keeps the
    exported series byte-stable across identical runs.
    """

    __slots__ = ("interval_ns", "rows", "_counters", "_gauges", "_multis")

    def __init__(self, interval_ns: float) -> None:
        if interval_ns <= 0:
            raise TelemetryError(
                f"metrics interval must be > 0 ns, got {interval_ns}"
            )
        self.interval_ns = interval_ns
        self.rows: list[dict] = []
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        self._multis: list[Callable[[], dict]] = []

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register ``fn`` to be sampled as column ``name``."""
        if name in self._gauges:
            raise TelemetryError(f"gauge {name!r} already registered")
        self._gauges[name] = fn

    def multi(self, fn: Callable[[], dict]) -> None:
        """Register a gauge that contributes several columns per tick."""
        self._multis.append(fn)

    def sample(self, now_ns: float) -> dict:
        """Evaluate every instrument into one row stamped ``now_ns``."""
        row: dict = {"t_ms": now_ns / 1e6}
        for name, fn in self._gauges.items():
            row[name] = fn()
        for fn in self._multis:
            for key, value in fn().items():
                row[key] = value
        for name, counter in self._counters.items():
            row[name] = counter.value
        self.rows.append(row)
        return row
