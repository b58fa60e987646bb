"""Statistics collectors shared by profiling and experiments.

Provides the exact metrics the paper reports: average/percentile
latency, throughput over a window, and per-tenant coefficient of
variation (Finding 15 contrasts CV < 0.5% vs CV > 50%).

Summaries are hot: every report row distills thousands to millions of
latency samples.  :meth:`LatencyRecorder.summary_us` therefore sorts
its samples exactly once and shares the sorted list across p50/p95/p99.
The module is stdlib only, so a serving process loads no array
library: ``sorted`` on the largest report costs less than such a
library adds to every process's memory and start-up.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable


def _percentile_of_sorted(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # Clamp: interpolation rounding must never escape the sample range.
    return min(max(value, ordered[0]), ordered[-1])


def percentile(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile; ``fraction`` in [0, 1]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    return _percentile_of_sorted(sorted(samples), fraction)


def mean(samples: list[float]) -> float:
    if not samples:
        raise ValueError("mean of empty sample set")
    return sum(samples) / len(samples)


def coefficient_of_variation(samples: list[float]) -> float:
    """stdev/mean, as a fraction (multiply by 100 for the paper's %)."""
    if len(samples) < 2:
        return 0.0
    avg = mean(samples)
    if avg == 0:
        return 0.0
    variance = sum((s - avg) ** 2 for s in samples) / (len(samples) - 1)
    return math.sqrt(variance) / avg


@dataclass(slots=True)
class LatencyRecorder:
    """Collects latency samples (ns) and summarizes them.

    The summaries only read ``samples``, so any float sequence can be
    summarized in place, e.g. a completion log's ``array('d')``.
    """

    samples: list[float] = field(default_factory=list)

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self.samples.append(latency_ns)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean_us(self) -> float:
        """Mean latency in µs; NaN with no samples (an empty run must
        still produce a report row — bare :func:`mean` stays loud)."""
        if not self.samples:
            return math.nan
        return mean(self.samples) / 1000.0

    def percentile_us(self, fraction: float) -> float:
        """Percentile latency in µs; NaN with no samples (bare
        :func:`percentile` stays loud)."""
        if not self.samples:
            return math.nan
        return percentile(self.samples, fraction) / 1000.0

    def p50_us(self) -> float:
        return self.percentile_us(0.50)

    def p95_us(self) -> float:
        return self.percentile_us(0.95)

    def p99_us(self) -> float:
        return self.percentile_us(0.99)

    def summary_us(self) -> dict[str, float]:
        """The percentile set every service/experiment table reports.

        Sorts the samples once and shares the sorted list across the
        three percentiles (the naive form re-sorts per percentile —
        3-4 full sorts per report row).
        """
        samples = self.samples
        if not samples:
            return {"count": 0, "mean_us": 0.0, "p50_us": 0.0,
                    "p95_us": 0.0, "p99_us": 0.0}
        if len(samples) == 1:
            # Every percentile of one sample is the sample; the mean
            # keeps sum()'s integer start, so -0.0 reads 0.0 as before.
            value = samples[0] / 1000.0
            return {"count": 1, "mean_us": (0 + samples[0]) / 1000.0,
                    "p50_us": value, "p95_us": value, "p99_us": value}
        ordered = sorted(samples)
        return {
            "count": len(samples),
            "mean_us": mean(samples) / 1000.0,
            "p50_us": _percentile_of_sorted(ordered, 0.50) / 1000.0,
            "p95_us": _percentile_of_sorted(ordered, 0.95) / 1000.0,
            "p99_us": _percentile_of_sorted(ordered, 0.99) / 1000.0,
        }


class _FieldSortKeys(dict):
    """Sort key of each key-field value, built on first lookup."""

    __slots__ = ()

    def __missing__(self, value) -> tuple:
        # Numbers order numerically and before strings, so tenant ids
        # don't come out 0, 1, 10, 11, 2 once they reach two digits.
        if isinstance(value, (int, float)):
            key = (0, value, "")
        else:
            key = (1, 0, str(value))
        self[value] = key
        return key


@dataclass(slots=True)
class KeyedLatencyRecorder:
    """Latency samples partitioned by a key, e.g. ``(tenant, placement)``.

    The offload service uses this for the per-tenant/per-placement
    breakdown mirroring Figure 20's per-VM traces: one recorder per key,
    summarized into p50/p95/p99 rows.
    """

    _recorders: dict[tuple, LatencyRecorder] = field(default_factory=dict)

    @classmethod
    def grouped(cls, keys: Iterable[tuple],
                latencies: Iterable[float]) -> "KeyedLatencyRecorder":
        """Pair ``keys`` with ``latencies`` and group by key.

        Each key's samples keep the order they arrive in, so summaries
        equal those of recording the same pairs one by one (the values
        are not checked again: the caller recorded them).
        """
        groups: defaultdict[tuple, list[float]] = defaultdict(list)
        for key, latency in zip(keys, latencies):
            groups[key].append(latency)
        return cls({key: LatencyRecorder(samples)
                    for key, samples in groups.items()})

    @staticmethod
    def _normalize(key) -> tuple:
        return key if isinstance(key, tuple) else (key,)

    def record(self, key, latency_ns: float) -> None:
        self.recorder(key).record(latency_ns)

    def recorder(self, key) -> LatencyRecorder:
        """The (created-on-demand) recorder for ``key``."""
        if not isinstance(key, tuple):
            key = (key,)
        recorder = self._recorders.get(key)
        if recorder is None:
            recorder = self._recorders[key] = LatencyRecorder()
        return recorder

    def keys(self) -> list[tuple]:
        # Thousands of keys share a few tenants and placements: build
        # each field value's sort key once.
        field_keys = _FieldSortKeys()
        return sorted(self._recorders,
                      key=lambda key: tuple(map(field_keys.__getitem__,
                                                key)))

    @property
    def total_count(self) -> int:
        return sum(r.count for r in self._recorders.values())

    def summary_us(self, key) -> dict[str, float]:
        """Summary for ``key``; absent keys read as empty, not created."""
        recorder = self._recorders.get(self._normalize(key))
        if recorder is None:
            return LatencyRecorder().summary_us()
        return recorder.summary_us()

    def breakdown(self, key_names: tuple[str, ...]) -> list[dict]:
        """One row per key: named key fields plus the percentile set."""
        rows = []
        for key in self.keys():
            if len(key) != len(key_names):
                raise ValueError(
                    f"key {key} does not match names {key_names}"
                )
            row: dict = dict(zip(key_names, key))
            row.update(self._recorders[key].summary_us())
            rows.append(row)
        return rows


@dataclass(slots=True)
class ThroughputTracker:
    """Accumulates (bytes, duration) into GB/s figures."""

    total_bytes: int = 0
    busy_ns: float = 0.0

    def record(self, nbytes: int, duration_ns: float) -> None:
        self.total_bytes += nbytes
        self.busy_ns += duration_ns

    def gbps(self, wall_ns: float | None = None) -> float:
        """GB/s over ``wall_ns`` (or accumulated busy time)."""
        elapsed = self.busy_ns if wall_ns is None else wall_ns
        if elapsed <= 0:
            return 0.0
        return self.total_bytes / elapsed  # bytes/ns == GB/s


@dataclass(slots=True)
class TimeSeries:
    """Fixed-interval aggregation for throughput-over-time traces.

    Figure 20 plots per-second per-VM throughput for 100 s; this bins
    completions into intervals and reports the per-interval MB/s series
    plus its coefficient of variation.
    """

    interval_ns: float
    _bins: dict[int, float] = field(default_factory=dict)

    def record(self, time_ns: float, nbytes: int) -> None:
        index = int(time_ns // self.interval_ns)
        self._bins[index] = self._bins.get(index, 0.0) + nbytes

    def series_mbps(self, start: int = 0, end: int | None = None) -> list[float]:
        """MB/s per interval over [start, end) bins; gaps read as zero."""
        if not self._bins:
            return []
        last = max(self._bins) + 1 if end is None else end
        seconds = self.interval_ns / 1e9
        return [
            self._bins.get(i, 0.0) / 1e6 / seconds
            for i in range(start, last)
        ]

    def cv_percent(self, drop_warmup: int = 1) -> float:
        """CV (%) of the per-interval series, skipping warm-up bins."""
        series = self.series_mbps()[drop_warmup:]
        if len(series) < 2:
            return 0.0
        return coefficient_of_variation(series) * 100.0
