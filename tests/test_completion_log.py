"""The columnar completion log and the flat-record trace ring.

The scheduler records each completion once into
:class:`~repro.service.scheduler.CompletionLog`; the service derives
its overall percentiles and every breakdown from the log when it
reports.  The oracle here feeds the same ``(key, latency)`` pairs,
in completion order, through :meth:`KeyedLatencyRecorder.record` —
the per-key recording the log replaced — and requires equal rows.

The trace ring keeps one flat ``(ph, track, name, ts_ns, dur_ns, keys,
*values)`` record per event behind a read-only
:class:`~repro.telemetry.trace.TraceEvents` sequence; it must read
exactly like a ``deque(maxlen)`` of the 6-tuples it used to store.
Both stores exist to keep per-completion objects off the cyclic GC,
which the last tests check directly.
"""

import collections
import gc
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.engine import Placement
from repro.service import FleetDevice, SchedulerCore
from repro.service.request import (
    BEST_EFFORT,
    INTERACTIVE,
    THROUGHPUT,
    OffloadRequest,
)
from repro.sim.engine import Simulator
from repro.sim.stats import (
    VECTORIZE_MIN,
    KeyedLatencyRecorder,
    LatencyRecorder,
    mean,
    percentile,
)
from repro.telemetry import Telemetry, TraceEvents, TraceRecorder
from service_stubs import StubDevice, flat_model

# -- trace ring -----------------------------------------------------------------


def _recorder(count: int, capacity: int = 16) -> TraceRecorder:
    recorder = TraceRecorder(capacity)
    for index in range(count):
        if index % 2:
            recorder.instant("sched", f"i{index}", float(index),
                             {"req": index})
        else:
            recorder.span("dev", f"s{index}", float(index),
                          index + 2.5, None)
    return recorder


def _expected(index: int) -> tuple:
    if index % 2:
        return ("i", "sched", f"i{index}", float(index), 0.0,
                {"req": index})
    return ("X", "dev", f"s{index}", float(index), 2.5, None)


class TestTraceEvents:
    def test_len_indexing_and_iteration(self):
        events = _recorder(5).events
        assert len(events) == 5
        assert events[0] == _expected(0)
        assert events[3] == _expected(3)
        assert events[-1] == _expected(4)
        assert events[-5] == _expected(0)
        assert list(events) == [_expected(i) for i in range(5)]
        assert [event[2] for event in events] == \
            ["s0", "i1", "s2", "i3", "s4"]

    def test_out_of_range_and_slices_rejected(self):
        events = _recorder(2).snapshot()
        for index in (2, -3):
            with pytest.raises(IndexError):
                events[index]
        with pytest.raises(TypeError):
            events[0:1]

    def test_equality(self):
        live = _recorder(4).events
        assert live == _recorder(4).snapshot()
        assert live != _recorder(3).events
        other = _recorder(4)
        other.instant("sched", "extra", 9.0)
        assert live != other.events
        assert TraceEvents() == TraceEvents([])
        assert (live == list(live)) is False

    def test_pickle_round_trip(self):
        for events in (_recorder(6).events, _recorder(6).snapshot(),
                       TraceEvents()):
            restored = pickle.loads(pickle.dumps(events))
            assert isinstance(restored, TraceEvents)
            assert restored == events
            assert list(restored) == list(events)

    def test_overflow_drops_whole_records(self):
        recorder = _recorder(5, capacity=3)
        assert recorder.recorded == 5
        assert recorder.dropped == 2
        assert list(recorder.events) == [_expected(i) for i in (2, 3, 4)]
        snapshot = recorder.snapshot()
        assert snapshot.records == [
            ("X", "dev", "s2", 2.0, 2.5, None),
            ("i", "sched", "i3", 3.0, 0.0, ("req",), 3),
            ("X", "dev", "s4", 4.0, 2.5, None),
        ]
        assert list(snapshot) == [_expected(i) for i in (2, 3, 4)]

    def test_report_snapshot_shares_events_and_is_frozen(self):
        telemetry = Telemetry(tracing=True, trace_capacity=8)
        telemetry.instant("sched", "admit", 1.0, {"req": 1})
        report = telemetry.report()
        telemetry.instant("sched", "admit", 2.0, {"req": 2})
        assert len(report.events) == 1
        assert report.events.records[0] is \
            telemetry.trace.events.records[0]
        # Each read rebuilds the args dict; nobody can edit the ring.
        event = report.events[0]
        event[5]["req"] = 99
        assert report.events[0] == ("i", "sched", "admit", 1.0, 0.0,
                                    {"req": 1})

    def test_empty_args_and_key_order_round_trip(self):
        recorder = TraceRecorder(4)
        recorder.instant("sched", "a", 1.0, {})
        recorder.span("dev", "b", 1.0, 0.5, {"z": 1, "a": None})
        recorder.span("dev", "c", 2.0, 3.0, {"a": 2, "z": 3})
        a, b, c = recorder.events
        assert a == ("i", "sched", "a", 1.0, 0.0, {})
        assert b == ("X", "dev", "b", 1.0, 0.0, {"z": 1, "a": None})
        assert list(b[5]) == ["z", "a"]
        assert list(c[5]) == ["a", "z"]
        records = recorder.events.records
        assert records[0][5] == ()
        assert records[1][5] is not records[2][5]

    def test_records_share_one_key_tuple_per_key_set(self):
        recorder = TraceRecorder(16)
        for index in range(6):
            recorder.instant("sched", "admit", float(index),
                             {"req": index, "outcome": "admitted"})
        keys = {id(record[5]) for record in recorder.events.records}
        assert len(keys) == 1
        restored = pickle.loads(pickle.dumps(recorder.snapshot()))
        assert len({id(record[5]) for record in restored.records}) == 1


_ARGS = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(st.sampled_from(["req", "device", "op", "lat_us"]),
                    st.one_of(st.integers(), st.text(max_size=3),
                              st.floats(allow_nan=False), st.booleans()),
                    max_size=4),
)
_EVENT = st.tuples(st.booleans(), st.sampled_from(["sched", "c0/dev"]),
                   st.sampled_from(["admit", "serve"]),
                   st.floats(0.0, 1e6), st.floats(-10.0, 1e3), _ARGS)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.lists(_EVENT, max_size=40))
def test_ring_equals_reference_deque_of_events(capacity, events):
    recorder = TraceRecorder(capacity)
    reference: collections.deque = collections.deque(maxlen=capacity)
    for is_span, track, name, ts, dur, args in events:
        if is_span:
            recorder.span(track, name, ts, ts + dur, args)
            reference.append(("X", track, name, ts,
                              max((ts + dur) - ts, 0.0), args))
        else:
            recorder.instant(track, name, ts, args)
            reference.append(("i", track, name, ts, 0.0, args))
    assert list(recorder.events) == list(reference)
    assert recorder.snapshot() == recorder.events
    assert [recorder.events[i] for i in range(len(reference))] == \
        list(reference)
    assert recorder.recorded == len(events)
    assert recorder.dropped == len(events) - len(reference)


def test_retained_records_hold_no_dict():
    telemetry = Telemetry(tracing=True, trace_capacity=32)
    east = telemetry.scoped("east")
    for index in range(50):
        east.span("dev", "serve", float(index), index + 2.0,
                  {"req": index, "op": "compress"})
        telemetry.instant("scheduler", "admit", float(index), {})
        east.instant("scheduler", "pend", float(index), None)
    records = telemetry.trace.snapshot().records
    assert len(records) == 32
    assert not any(isinstance(field, dict)
                   for record in records for field in record)


def test_spans_on_one_scoped_track_share_one_string():
    root = Telemetry(tracing=True)
    nested = root.scoped("east").scoped("rack0")
    nested.span("dpzip0", "serve", 0.0, 1.0, {"req": 1})
    nested.span("dpzip0", "serve", 1.0, 2.0, {"req": 2})
    root.scoped("east").scoped("rack0").instant("dpzip0", "mark", 3.0)
    first, second, third = root.trace.events.records
    assert first[1] == "east/rack0/dpzip0"
    assert first[1] is second[1] is third[1]


# -- completion log oracle ------------------------------------------------------


def _mixed_run(seed: int = 7):
    """Both ops and three SLO classes over three placements.

    Tenants: twelve regulars, one occasional tenant and a one-off
    tenant per twenty requests (one-sample breakdown rows).  Returns
    the service and the oracle recorders fed from the completion
    hooks, in completion order.
    """
    sim = Simulator()
    fleet = [
        FleetDevice(sim, StubDevice(name=name, placement=placement),
                    {"compress": flat_model(per_byte),
                     "decompress": flat_model(per_byte / 3)},
                    batch_size=2, batch_timeout_ns=5_000.0)
        for name, placement, per_byte in (
            ("peri", Placement.PERIPHERAL, 0.02),
            ("chip", Placement.ON_CHIP, 0.05),
            ("ssd", Placement.IN_STORAGE, 0.11))
    ]
    service = SchedulerCore(sim, fleet, "round-robin")
    overall = LatencyRecorder()
    by_tenant = KeyedLatencyRecorder()
    by_op = KeyedLatencyRecorder()
    by_slo = KeyedLatencyRecorder()

    def observe(request, device, cost):
        latency = sim.now - request.arrival_ns
        overall.record(latency)
        by_tenant.record((request.tenant, device.placement.value), latency)
        by_op.record((request.op, device.placement.value), latency)
        by_slo.record((request.slo.name,), latency)

    rng = random.Random(seed)
    when = 0.0
    for index in range(400):
        when += rng.expovariate(1 / 800.0)
        draw = rng.random()
        request = OffloadRequest(
            tenant=(rng.randrange(12) if draw < 0.85
                    else 100 if draw < 0.95 else 1000 + index),
            nbytes=rng.choice((512, 4096, 16384)),
            op=rng.choice(("compress", "decompress")),
            slo=rng.choice((INTERACTIVE, THROUGHPUT, BEST_EFFORT)))
        sim.call_later(when, lambda r=request: service.submit(
            r, on_complete=observe))
    sim.run()
    service.flush()
    sim.run()
    return service, overall, (by_tenant, by_op, by_slo)


class TestCompletionLog:
    def test_breakdowns_equal_per_key_recording(self):
        service, overall, (by_tenant, by_op, by_slo) = _mixed_run()
        report = service.report()
        assert report.completed == overall.count == 400
        assert report.breakdown == by_tenant.breakdown(
            ("tenant", "placement"))
        assert report.op_breakdown == by_op.breakdown(("op", "placement"))
        assert len(report.breakdown) > 12
        assert any(row["count"] == 1 for row in report.breakdown)
        assert {row["op"] for row in report.op_breakdown} == \
            {"compress", "decompress"}
        summary = overall.summary_us()
        assert (report.mean_us, report.p50_us, report.p95_us,
                report.p99_us) == (summary["mean_us"], summary["p50_us"],
                                   summary["p95_us"], summary["p99_us"])
        assert len(report.slo_breakdown) == 3
        for row in report.slo_breakdown:
            latency = by_slo.summary_us((row["slo"],))
            assert (row["p50_us"], row["p99_us"]) == \
                (latency["p50_us"], latency["p99_us"])
            assert row["completed"] == latency["count"]

    def test_log_rows_are_in_completion_order(self):
        service, overall, _ = _mixed_run(seed=3)
        log = service.metrics.log
        assert log.latency_ns.tolist() == overall.samples
        assert len(log.tenant) == len(log.placement) == len(log.op) \
            == len(log.slo) == 400

    def test_negative_latency_still_rejected(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(), flat_model())
        service = SchedulerCore(sim, [device], "round-robin")
        request = OffloadRequest(tenant=0, nbytes=64)
        request.arrival_ns = 5.0
        with pytest.raises(ValueError, match="negative latency"):
            service._record_completion(request, device, None)


# -- the views' fast paths ------------------------------------------------------


@pytest.mark.parametrize("count", [1, 7, VECTORIZE_MIN + 3])
def test_summary_of_double_array_equals_list(count):
    rng = random.Random(count)
    values = [rng.expovariate(1 / 40_000.0) for _ in range(count)]
    assert LatencyRecorder(array("d", values)).summary_us() == \
        LatencyRecorder(values).summary_us()


def _reference_sort_key(key: tuple) -> tuple:
    """The key order the breakdown rows have always had."""
    return tuple((0, field, "") if isinstance(field, (int, float))
                 else (1, 0, str(field)) for field in key)


def _general_summary(samples: list[float]) -> dict:
    """``summary_us`` as computed before the one-sample fast path."""
    return {"count": len(samples), "mean_us": mean(samples) / 1000.0,
            "p50_us": percentile(samples, 0.50) / 1000.0,
            "p95_us": percentile(samples, 0.95) / 1000.0,
            "p99_us": percentile(samples, 0.99) / 1000.0}


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(0.0), st.just(-0.0),
                 st.floats(min_value=0.0, max_value=1e12),
                 st.integers(min_value=0, max_value=10**12)))
def test_one_sample_summary_equals_general_path(value):
    fast = LatencyRecorder([value]).summary_us()
    assert fast == _general_summary([value])
    # The same floats, bit for bit (== would let 0.0 match -0.0).
    assert [repr(v) for v in fast.values()] == \
        [repr(v) for v in _general_summary([value]).values()]


_KEY_FIELD = st.one_of(st.integers(-5, 200), st.sampled_from(
    ["cpu", "on-chip", "peripheral", "in-storage", "10", "2", ""]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_KEY_FIELD, _KEY_FIELD), max_size=40))
def test_memoized_key_order_equals_reference_order(keys):
    keyed = KeyedLatencyRecorder.grouped(keys, [1.0] * len(keys))
    assert keyed.keys() == sorted(dict.fromkeys(keys),
                                  key=_reference_sort_key)


# -- keeping completions off the cyclic GC ----------------------------------------


def test_trace_records_are_untracked_after_collection():
    recorder = TraceRecorder(64)
    for index in range(200):
        recorder.span(f"c{index % 3}/dev", "engine", index * 1.5,
                      index * 1.5 + 7.0, {"req": index, "device": "dpzip0"})
        recorder.instant("scheduler", "admit", index * 1.5,
                         {"req": index, "outcome": "admitted"})
    # A record can leave the GC only once its shared key tuple has;
    # the second pass covers key tuples the first one reached last.
    gc.collect()
    gc.collect()
    records = recorder.events.records
    assert len(records) == 64
    assert not any(gc.is_tracked(record) for record in records)
    assert not any(gc.is_tracked(record)
                   for record in recorder.snapshot().records)


def test_log_columns_hold_no_tracked_elements():
    service, _, _ = _mixed_run(seed=11)
    log = service.metrics.log
    gc.collect()
    for column in (log.tenant, log.placement, log.op, log.slo):
        assert len(column) == 400
        assert not any(gc.is_tracked(value) for value in column)
    # The latency column stores raw doubles, not objects.
    assert log.latency_ns.typecode == "d"
