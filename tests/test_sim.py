"""Tests for the discrete-event kernel and statistics collectors."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import (
    KeyedLatencyRecorder,
    LatencyRecorder,
    Simulator,
    Store,
    ThroughputTracker,
    TimeSeries,
    coefficient_of_variation,
    mean,
    percentile,
)


class TestSimulator:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        log = []

        def proc(sim):
            yield sim.timeout(10)
            log.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert log == [10.0]

    def test_run_until_stops_early(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(100)

        sim.spawn(proc(sim))
        sim.run(until=50)
        assert sim.now == 50

    def test_ordering_is_fifo_at_same_time(self):
        sim = Simulator()
        log = []

        def proc(sim, name):
            yield sim.timeout(5)
            log.append(name)

        sim.spawn(proc(sim, "a"))
        sim.spawn(proc(sim, "b"))
        sim.run()
        assert log == ["a", "b"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-1)

    def test_process_waits_on_process(self):
        sim = Simulator()
        log = []

        def child(sim):
            yield sim.timeout(7)
            log.append("child")
            return 42

        def parent(sim):
            value = yield sim.spawn(child(sim))
            log.append(("parent", value))

        sim.spawn(parent(sim))
        sim.run()
        assert log == ["child", ("parent", 42)]

    def test_waiting_on_completed_process_resumes(self):
        sim = Simulator()
        log = []

        def immediate(sim):
            return
            yield  # pragma: no cover - makes this a generator

        child = sim.spawn(immediate(sim))

        def parent(sim):
            yield sim.timeout(5)
            yield child  # child finished long ago; must not deadlock
            log.append(sim.now)

        sim.spawn(parent(sim))
        sim.run()
        assert log == [5.0]

    def test_event_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callables_and_events_share_fifo_order(self):
        # The queue mixes Events and bare callables; both must fire in
        # scheduling order at a shared timestamp.
        sim = Simulator()
        log = []

        def proc(sim):
            yield sim.timeout(5)  # scheduled at t=0, after both timers
            log.append("proc")

        sim.call_later(5, lambda: log.append("first"))
        sim.spawn(proc(sim))
        sim.call_later(5, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "proc"]

    def test_call_later_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_later(-1, lambda: None)

    def test_late_add_callback_on_fired_event_runs(self):
        # Registering on an already-fired event must still run the
        # callback (at the current time), with the event's value.
        sim = Simulator()
        log = []
        event = sim.timeout(3, value="payload")

        def proc(sim):
            yield sim.timeout(10)
            event.add_callback(lambda e: log.append((sim.now, e.value)))
            yield sim.timeout(1)

        sim.spawn(proc(sim))
        sim.run()
        assert log == [(10.0, "payload")]

    def test_event_fans_out_to_many_waiters_in_order(self):
        # _callbacks escalates None -> single callable -> list; three
        # waiters cover every branch and must resume in wait order.
        sim = Simulator()
        log = []
        gate = sim.event()

        def waiter(sim, name):
            value = yield gate
            log.append((name, value))

        for name in ("a", "b", "c"):
            sim.spawn(waiter(sim, name))

        def trigger(sim):
            yield sim.timeout(4)
            gate.succeed("go")

        sim.spawn(trigger(sim))
        sim.run()
        assert log == [("a", "go"), ("b", "go"), ("c", "go")]

    def test_run_until_then_resume_preserves_order(self):
        sim = Simulator()
        log = []
        for delay, name in ((2, "early"), (8, "late")):
            sim.call_later(delay, lambda name=name: log.append(name))
        sim.run(until=5)
        assert log == ["early"] and sim.now == 5
        sim.run()
        assert log == ["early", "late"] and sim.now == 8.0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append(item)

        store.put("x")
        sim.spawn(consumer(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append((item, sim.now))

        def producer(sim):
            yield sim.timeout(8)
            store.put("y")

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert got == [("y", 8.0)]


class TestStats:
    def test_percentile_bounds(self):
        samples = [float(i) for i in range(101)]
        assert percentile(samples, 0.0) == 0.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile(samples, 0.5) == 50.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_cv_of_constant_is_zero(self):
        assert coefficient_of_variation([5.0] * 10) == 0.0

    def test_cv_positive_for_varied(self):
        assert coefficient_of_variation([1.0, 2.0, 3.0]) > 0.0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_latency_recorder(self):
        recorder = LatencyRecorder()
        for v in (1000.0, 2000.0, 3000.0):
            recorder.record(v)
        assert recorder.mean_us() == 2.0
        assert recorder.count == 3
        with pytest.raises(ValueError):
            recorder.record(-1.0)

    def test_latency_recorder_percentile_shortcuts(self):
        recorder = LatencyRecorder()
        for v in range(1, 101):
            recorder.record(v * 1000.0)
        assert recorder.p50_us() == pytest.approx(50.5)
        assert recorder.p95_us() == pytest.approx(95.05)
        assert recorder.p99_us() == pytest.approx(99.01)
        summary = recorder.summary_us()
        assert summary["count"] == 100
        assert summary["p50_us"] == recorder.p50_us()
        assert summary["p99_us"] == recorder.p99_us()

    def test_latency_summary_of_empty_recorder(self):
        summary = LatencyRecorder().summary_us()
        assert summary == {"count": 0, "mean_us": 0.0, "p50_us": 0.0,
                           "p95_us": 0.0, "p99_us": 0.0}

    def test_keyed_recorder_partitions_samples(self):
        keyed = KeyedLatencyRecorder()
        for _ in range(10):
            keyed.record((0, "cpu"), 1000.0)
            keyed.record((1, "in-storage"), 5000.0)
        assert keyed.total_count == 20
        assert keyed.keys() == [(0, "cpu"), (1, "in-storage")]
        assert keyed.summary_us((0, "cpu"))["p99_us"] == pytest.approx(1.0)
        assert keyed.summary_us((1, "in-storage"))["p50_us"] == \
            pytest.approx(5.0)

    def test_keyed_recorder_breakdown_rows(self):
        keyed = KeyedLatencyRecorder()
        keyed.record((2, "on-chip"), 2000.0)
        keyed.record((1, "cpu"), 8000.0)
        rows = keyed.breakdown(("tenant", "placement"))
        assert [(r["tenant"], r["placement"]) for r in rows] == \
            [(1, "cpu"), (2, "on-chip")]
        assert rows[0]["count"] == 1
        assert rows[1]["p50_us"] == pytest.approx(2.0)

    def test_keyed_recorder_scalar_keys_and_name_mismatch(self):
        keyed = KeyedLatencyRecorder()
        keyed.record("cpu", 3000.0)
        assert keyed.summary_us("cpu")["count"] == 1
        with pytest.raises(ValueError):
            keyed.breakdown(("tenant", "placement"))

    def test_keyed_recorder_reads_do_not_create_keys(self):
        keyed = KeyedLatencyRecorder()
        keyed.record((0, "cpu"), 1000.0)
        assert keyed.summary_us((9, "cpu"))["count"] == 0
        assert keyed.keys() == [(0, "cpu")]

    def test_keyed_recorder_numeric_key_ordering(self):
        keyed = KeyedLatencyRecorder()
        for tenant in (10, 2, 0, 11, 1):
            keyed.record((tenant, "cpu"), 1000.0)
        assert [k[0] for k in keyed.keys()] == [0, 1, 2, 10, 11]

    def test_throughput_tracker(self):
        tracker = ThroughputTracker()
        tracker.record(4096, 1000.0)
        assert tracker.gbps() == pytest.approx(4.096)

    def test_timeseries_binning_and_cv(self):
        series = TimeSeries(interval_ns=1e9)
        for second in range(10):
            series.record(second * 1e9 + 0.5e9, 100_000_000)
        values = series.series_mbps()
        assert len(values) == 10
        assert all(v == pytest.approx(100.0) for v in values)
        assert series.cv_percent() == pytest.approx(0.0)


def _reference_percentile(samples: list[float], fraction: float) -> float:
    """Sort-and-interpolate oracle, written out independently of
    ``repro.sim.stats``."""
    ordered = sorted(samples)
    rank = fraction * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    return min(max(value, ordered[0]), ordered[-1])


class TestVectorizedStats:
    """Large inputs (the sizes an optional numpy path once served) must
    equal the reference *bit for bit*, not merely approximately —
    summaries feed the golden-run rows."""

    def test_large_summary_matches_pure_python_exactly(self):
        rng = random.Random(11)
        recorder = LatencyRecorder()
        for _ in range(4596):
            recorder.record(rng.uniform(0.0, 1e7))
        samples = recorder.samples
        assert recorder.summary_us() == {
            "count": 4596,
            "mean_us": sum(samples) / len(samples) / 1000.0,
            "p50_us": _reference_percentile(samples, 0.50) / 1000.0,
            "p95_us": _reference_percentile(samples, 0.95) / 1000.0,
            "p99_us": _reference_percentile(samples, 0.99) / 1000.0,
        }

    def test_large_percentile_matches_pure_python_exactly(self):
        rng = random.Random(12)
        samples = [rng.uniform(0.0, 1e9) for _ in range(4103)]
        fractions = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]
        assert [percentile(samples, f) for f in fractions] == \
            [_reference_percentile(samples, f) for f in fractions]

    def test_long_timeseries_matches_pure_python_exactly(self):
        rng = random.Random(13)
        series = TimeSeries(interval_ns=1e6)
        bins: dict[int, float] = {}
        records = [(rng.uniform(0.0, 4096 * 1e6), rng.randrange(1, 1 << 20))
                   for _ in range(2000)]
        # A span of 4,099 bins, most of them empty (gaps read as zero).
        records.append((4099 * 1e6 - 1.0, 4096))
        for time_ns, nbytes in records:
            series.record(time_ns, nbytes)
            index = int(time_ns // 1e6)
            bins[index] = bins.get(index, 0.0) + nbytes
        expected = [bins.get(i, 0.0) / 1e6 / 1e-3 for i in range(4099)]
        assert series.series_mbps() == expected

    def test_small_runs_stay_pure_python(self):
        recorder = LatencyRecorder()
        for value in (3000.0, 1000.0, 2000.0):
            recorder.record(value)
        summary = recorder.summary_us()
        assert summary["p50_us"] == 2.0
        assert summary["p99_us"] == \
            _reference_percentile(recorder.samples, 0.99) / 1000.0


@given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=200),
       st.floats(0.0, 1.0))
def test_percentile_within_range_property(samples, frac):
    value = percentile(samples, frac)
    assert min(samples) <= value <= max(samples)
