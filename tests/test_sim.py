"""Tests for the discrete-event kernel and statistics collectors."""

import heapq
import itertools
import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Event,
    KeyedLatencyRecorder,
    LatencyRecorder,
    Process,
    Simulator,
    ThroughputTracker,
    TimeSeries,
    coefficient_of_variation,
    mean,
    percentile,
)


def sleep(sim, delay: float, value=None, new_event=Event):
    """An event a process can yield to wait ``delay`` ns: a kernel
    callback succeeds it when the time comes."""
    event = new_event(sim)
    sim.call_later(delay, partial(event.succeed, value))
    return event


class TestSimulator:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        log = []
        sim.call_later(10, lambda: log.append(sim.now))
        sim.run()
        assert log == [10.0]

    def test_run_until_stops_early(self):
        sim = Simulator()
        log = []
        sim.call_later(100, lambda: log.append(sim.now))
        sim.run(until=50)
        assert sim.now == 50 and log == []

    def test_ordering_is_fifo_at_same_time(self):
        sim = Simulator()
        log = []
        for name in ("a", "b"):
            sim.call_later(5, partial(log.append, name))
        sim.run()
        assert log == ["a", "b"]

    def test_negative_delay_rejected(self):
        # Also from inside a run, with the clock past zero: nothing is
        # scheduled and the run ends at the clock.
        sim = Simulator()
        errors = []

        def schedule_backwards():
            with pytest.raises(SimulationError):
                sim.call_later(-1, lambda: errors.append("ran"))
            errors.append(sim.now)

        sim.call_later(10, schedule_backwards)
        sim.run()
        assert errors == [10.0] and sim.now == 10.0

    def test_process_waits_on_process(self):
        sim = Simulator()
        log = []

        def child(sim):
            yield sleep(sim, 7)
            log.append("child")
            return 42

        def parent(sim):
            value = yield Process(sim, child(sim))
            log.append(("parent", value))

        Process(sim, parent(sim))
        sim.run()
        assert log == ["child", ("parent", 42)]

    def test_waiting_on_completed_process_resumes(self):
        sim = Simulator()
        log = []

        def immediate(sim):
            return
            yield  # pragma: no cover - makes this a generator

        child = Process(sim, immediate(sim))

        def parent(sim):
            yield sleep(sim, 5)
            yield child  # child finished long ago; must not deadlock
            log.append(sim.now)

        Process(sim, parent(sim))
        sim.run()
        assert log == [5.0]

    def test_event_double_succeed_rejected(self):
        sim = Simulator()
        event = Event(sim)
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callables_and_events_share_fifo_order(self):
        # The lane mixes Events and bare callables; both must fire in
        # scheduling order at a shared timestamp.  The event joins the
        # lane when it is succeeded, behind the callable already there.
        sim = Simulator()
        log = []
        event = Event(sim)
        event.add_callback(lambda e: log.append(e.value))
        sim.call_later(5, lambda: log.append("first"))
        sim.call_later(5, partial(event.succeed, "event"))
        sim.call_later(5, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "event"]

    def test_call_later_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_later(-1, lambda: None)

    def test_late_add_callback_on_fired_event_runs(self):
        # Registering on an already-fired event must still run the
        # callback (at the current time), with the event's value.
        sim = Simulator()
        log = []
        event = Event(sim)
        sim.call_later(3, partial(event.succeed, "payload"))
        sim.call_later(10, lambda: event.add_callback(
            lambda e: log.append((sim.now, e.value))))
        sim.run()
        assert log == [(10.0, "payload")]

    def test_event_fans_out_to_many_waiters_in_order(self):
        # _callbacks escalates None -> single callable -> list; three
        # waiters cover every branch and must resume in wait order.
        sim = Simulator()
        log = []
        gate = Event(sim)

        def waiter(sim, name):
            value = yield gate
            log.append((name, value))

        for name in ("a", "b", "c"):
            Process(sim, waiter(sim, name))
        sim.call_later(4, partial(gate.succeed, "go"))
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

    def test_run_until_before_clock_rejected(self):
        # Moving the clock back to 5 would let a later call_later(1)
        # fire at t=6, before work that already ran at 10 and 15.
        sim = Simulator()
        log = []
        for delay in (10, 15, 20):
            sim.call_later(delay, lambda: log.append(sim.now))
        sim.run(until=15)
        with pytest.raises(SimulationError, match="before the clock"):
            sim.run(until=5)
        assert sim.now == 15
        sim.call_later(1, lambda: log.append(sim.now))
        sim.run()
        assert log == [10.0, 15.0, 16.0, 20.0]


class _RefEvent:
    """Event of :class:`_HeapKernel`."""

    def __init__(self, sim: "_HeapKernel") -> None:
        self.sim = sim
        self.callbacks = []
        self.triggered = False
        self.fired = False
        self.value = None

    def succeed(self, value=None):
        assert not self.triggered
        self.triggered = True
        self.value = value
        self.sim.call_later(0.0, self._fire)
        return self

    def add_callback(self, callback) -> None:
        if self.fired:
            self.sim.call_later(0.0, lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        self.fired = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


def _ref_process(sim: "_HeapKernel", generator) -> _RefEvent:
    """Process of :class:`_HeapKernel`: a generator driven by the
    events it yields, completing with its return value."""
    process = _RefEvent(sim)

    def step(value) -> None:
        try:
            target = generator.send(value)
        except StopIteration as stop:
            process.succeed(stop.value)
            return
        target.add_callback(lambda event: step(event.value))

    sim.call_later(0.0, lambda: step(None))
    return process


class _HeapKernel:
    """Reference kernel: every entry, same-instant ones included, is a
    ``(when, seq, callable)`` heap tuple popped one at a time."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap = []
        self._sequence = itertools.count()

    def call_later(self, delay, callback) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence),
                                    callback))

    def run(self, until=None) -> None:
        while self._heap:
            when, _, callback = self._heap[0]
            if until is not None and when > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            self.now = when
            callback()
        if until is not None:
            self.now = max(self.now, until)


#: Delays that are zero, round to now at a 1e12 ns clock, or are real.
_DELAYS = st.sampled_from([0.0, 1e-5, 1.0, 3.0, 10.0])
_KINDS = st.sampled_from(["later", "timeout", "event", "succeed", "wait",
                          "spawn"])
_OPS = st.recursive(
    st.tuples(_KINDS, _DELAYS, st.integers(0, 7), st.just(())),
    lambda children: st.tuples(_KINDS, _DELAYS, st.integers(0, 7),
                               st.lists(children, max_size=3)),
    max_leaves=30,
)
_PROGRAMS = st.tuples(
    st.booleans(),  # start the clock at 1e12 ns
    st.lists(st.tuples(st.lists(_OPS, max_size=4),
                       st.one_of(st.none(), st.sampled_from([0, 1, 5, 12]))),
             min_size=1, max_size=4),
)


def _play(sim, new_event, new_process, program):
    """Run ``program`` on ``sim``, building events with ``new_event(sim)``
    and processes with ``new_process(sim, generator)``; return the
    firing log and the number of entries the kernel scheduled."""
    large_clock, segments = program
    log = []
    events = []  # plain events an op may succeed
    waitables = []  # anything an op may wait on
    tokens = itertools.count()

    def schedule(op) -> None:
        kind, delay, pick, children = op
        token = next(tokens)

        def fire(*_) -> None:
            log.append((token, sim.now))
            for child in children:
                schedule(child)

        if kind == "later":
            sim.call_later(delay, fire)
        elif kind == "timeout":
            timer = sleep(sim, delay, token, new_event)
            timer.add_callback(fire)
            waitables.append(timer)
        elif kind == "event":
            event = new_event(sim)
            event.add_callback(fire)
            events.append(event)
            waitables.append(event)
        elif kind == "succeed":
            pending = [event for event in events if not event.triggered]
            if pending:
                pending[pick % len(pending)].succeed(token)
            fire()
        elif kind == "wait":
            if waitables:
                waitables[pick % len(waitables)].add_callback(fire)
        else:
            def process():
                log.append((token, "start", sim.now))
                yield sleep(sim, delay, new_event=new_event)
                if waitables:
                    value = yield waitables[pick % len(waitables)]
                    log.append((token, "woke", value, sim.now))
                fire()
                return token

            waitables.append(new_process(sim, process()))

    if large_clock:
        sim.run(until=1e12)
    for ops, until_offset in segments:
        for op in ops:
            schedule(op)
        sim.run(until=None if until_offset is None
                else sim.now + until_offset)
    sim.run()
    return log, next(sim._sequence)


class TestKernelOrder:
    @settings(max_examples=300, deadline=None)
    @given(_PROGRAMS)
    def test_lane_kernel_matches_heap_reference(self, program):
        """The lane kernel fires in exactly ``(when, seq)`` order: the
        same order, and the same number of entries, as a heap-only
        kernel, for zero, rounding and positive delays, events
        succeeded inside and outside ``run``, timer events, late
        waiters, processes and ``run(until=...)`` split over several
        calls."""
        assert (_play(Simulator(), Event, Process, program)
                == _play(_HeapKernel(), _RefEvent, _ref_process, program))


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
