"""Telemetry tests: spec plumbing, trace export, metrics, determinism.

Unit scenarios exercise the registry/recorder primitives directly; the
integration scenarios run small real clusters (single cheap CPU device
where possible) with telemetry declared in the spec and assert on the
exported artifacts — the Chrome trace-event document and the sampled
metrics series — including byte-identical reproducibility across the
inline and multiprocess sweep paths.
"""

import dataclasses
import json
import math

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    DeviceSpec,
    FleetSpec,
    StoreSpec,
    TelemetrySpec,
    default_cluster_spec,
)
from repro.errors import ClusterSpecError, TelemetryError
from repro.sim.stats import LatencyRecorder, percentile
from repro.sweep import SweepAxis, SweepRunner, SweepSpec, WorkloadSpec
from repro.telemetry import (
    DISABLED,
    Counter,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TraceRecorder,
    assert_request_phases,
    render_trace,
    request_phases,
    trace_document,
    validate_trace,
)

CHEAP_CLUSTER = ClusterSpec(
    fleet=FleetSpec(
        devices=(DeviceSpec("cpu", algorithm="snappy", threads=4),),
    ),
)


def traced(spec: ClusterSpec, **kwargs) -> ClusterSpec:
    kwargs.setdefault("trace", True)
    kwargs.setdefault("metrics_interval_ns", 1e5)
    return dataclasses.replace(spec, telemetry=TelemetrySpec(**kwargs))


def run_cheap(spec: ClusterSpec, duration_ns: float = 4e5, seed: int = 11):
    cluster = Cluster.from_spec(spec)
    cluster.open_loop(offered_gbps=2.0, duration_ns=duration_ns,
                      tenants=2, seed=seed)
    return cluster.run()


class TestTelemetrySpec:
    def test_round_trip(self):
        spec = traced(default_cluster_spec(),
                      trace_capacity=4096, metrics_interval_ns=5e4)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert ClusterSpec.from_dict(doc) == spec
        assert doc["telemetry"]["trace_capacity"] == 4096

    def test_unknown_key_rejected(self):
        doc = traced(CHEAP_CLUSTER).to_dict()
        doc["telemetry"]["sampel_ns"] = 1.0
        with pytest.raises(ClusterSpecError, match="sampel_ns"):
            ClusterSpec.from_dict(doc)

    def test_validation(self):
        with pytest.raises(ClusterSpecError):
            TelemetrySpec(trace_capacity=0)
        with pytest.raises(ClusterSpecError):
            TelemetrySpec(metrics_interval_ns=-1.0)
        assert not TelemetrySpec().enabled
        assert TelemetrySpec(trace=True).enabled
        assert TelemetrySpec(metrics_interval_ns=1e5).enabled

    def test_disabled_singleton_is_inert(self):
        assert not DISABLED.enabled
        assert not DISABLED.tracing
        assert DISABLED.metrics is None


class TestTraceRecorder:
    def test_ring_buffer_drops_oldest(self):
        recorder = TraceRecorder(capacity=4)
        for i in range(10):
            recorder.instant("t", f"e{i}", float(i), ("req",), i)
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        names = [event[2] for event in recorder.events]
        assert names == ["e6", "e7", "e8", "e9"]

    def test_span_duration_clamped_non_negative(self):
        recorder = TraceRecorder(capacity=8)
        recorder.span("t", "s", 10.0, 5.0, ())
        assert recorder.events[0][4] == 0.0

    def test_document_shape(self):
        recorder = TraceRecorder(capacity=8)
        recorder.span("dev", "serve", 1000.0, 3000.0, ("req",), 1)
        recorder.instant("scheduler", "admit", 500.0, ("req",), 1)
        doc = trace_document(list(recorder.events),
                            dropped=recorder.dropped)
        validate_trace(doc)
        assert doc["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}
        span = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert span["ts"] == 1.0 and span["dur"] == 2.0  # ns -> us

    def test_validate_rejects_garbage(self):
        with pytest.raises(TelemetryError):
            validate_trace({"traceEvents": "nope"})
        with pytest.raises(TelemetryError):
            validate_trace({"traceEvents": [{"ph": "X", "ts": 0.0}]})


class TestMetricsRegistry:
    def test_counters_gauges_and_multis(self):
        registry = MetricsRegistry(interval_ns=1e5)
        served = registry.counter("served")
        registry.gauge("depth", lambda: 3.0)
        registry.multi(lambda: {"a": 1.0, "b": 2.0})
        served.inc()
        served.inc(2.0)
        row = registry.sample(2e5)
        assert row == {"t_ms": 0.2, "depth": 3.0, "a": 1.0, "b": 2.0,
                       "served": 3.0}
        assert registry.rows == [row]

    def test_duplicate_gauge_rejected(self):
        registry = MetricsRegistry(interval_ns=1e5)
        registry.gauge("depth", lambda: 0.0)
        with pytest.raises(TelemetryError, match="depth"):
            registry.gauge("depth", lambda: 1.0)

    def test_histogram_quantiles(self):
        histogram = Histogram("lat")
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.quantile(0.5))
        for value in (1.0, 2.0, 4.0, 8.0, 1000.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.quantile(0.0) <= histogram.quantile(0.99)
        assert histogram.mean == pytest.approx(203.0)

    def test_counter_accumulates(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(0.5)
        assert counter.value == 1.5


class TestClusterIntegration:
    def test_trace_export_validates_with_full_phase_chains(self, tmp_path):
        result = run_cheap(traced(CHEAP_CLUSTER))
        assert result.telemetry is not None
        path = str(tmp_path / "trace.json")
        assert result.export_trace(path) == path
        assert result.trace_path == path
        with open(path) as handle:
            doc = json.load(handle)
        stats = validate_trace(doc)
        assert stats["requests"] > 0
        chained = assert_request_phases(doc)
        assert chained > 0
        phases = request_phases(doc)
        complete = [names for names in phases.values()
                    if "complete" in names]
        assert complete and all(
            {"admit", "queue", "dispatch", "serve"} <= names
            for names in complete)

    def test_store_phases_in_trace(self):
        spec = traced(dataclasses.replace(
            CHEAP_CLUSTER, store=StoreSpec(cache_blocks=16)))
        cluster = Cluster.from_spec(spec)
        cluster.store_client(read_fraction=0.5, duration_ns=4e5,
                             offered_gbps=2.0, seed=3)
        result = cluster.run()
        doc = result.telemetry.trace_document()
        names = {event["name"] for event in doc["traceEvents"]
                 if event["ph"] in ("X", "i")}
        assert {"cache-probe", "get", "put"} <= names

    def test_metrics_series_columns(self):
        spec = traced(default_cluster_spec(store=True))
        cluster = Cluster.from_spec(spec)
        cluster.open_loop(offered_gbps=24.0, duration_ns=6e5,
                          tenants=4, seed=5)
        rows = cluster.run().metrics_rows()
        assert len(rows) == 6
        for key in ("t_ms", "pending", "utilization", "completed",
                    "power_w", "hit_rate", "garbage_bytes",
                    "spill_rate", "shed_rate"):
            assert key in rows[0], key
        assert rows[0]["t_ms"] == pytest.approx(0.1)
        assert any(row["power_w"] > 0.0 for row in rows)
        assert all(row["utilization"] >= 0.0 for row in rows)

    def test_ring_buffer_bounds_exported_events(self):
        result = run_cheap(traced(CHEAP_CLUSTER, trace_capacity=16))
        report = result.telemetry
        assert report.recorded > 16
        assert len(report.events) == 16
        assert report.dropped == report.recorded - 16
        doc = report.trace_document()
        validate_trace(doc)
        assert doc["otherData"]["dropped_events"] == report.dropped

    def test_telemetry_does_not_perturb_results(self):
        baseline = run_cheap(CHEAP_CLUSTER)
        observed = run_cheap(traced(CHEAP_CLUSTER))
        base_row = dict(baseline.row())
        seen_row = dict(observed.row())
        assert base_row == seen_row

    def test_export_without_telemetry_raises(self, tmp_path):
        result = run_cheap(CHEAP_CLUSTER)
        assert result.telemetry is None
        assert result.metrics_rows() == []
        with pytest.raises(TelemetryError, match="TelemetrySpec.trace"):
            result.export_trace(str(tmp_path / "trace.json"))
        with pytest.raises(TelemetryError,
                           match="TelemetrySpec.metrics_interval_ns"):
            result.health()

    def test_export_metrics_only_names_trace_field(self, tmp_path):
        result = run_cheap(traced(CHEAP_CLUSTER, trace=False,
                                  metrics_interval_ns=1e5))
        assert result.metrics_rows()
        with pytest.raises(TelemetryError, match="TelemetrySpec.trace"):
            result.export_trace(str(tmp_path / "trace.json"))


class TestDeterminism:
    def _sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            cluster=traced(CHEAP_CLUSTER),
            workload=WorkloadSpec(mode="open-loop", duration_ns=3e5,
                                  offered_gbps=2.0, tenants=2),
            axes=(SweepAxis.over("policy", "policy",
                                 ("round-robin", "cost-model")),),
            root_seed=21,
        )

    def test_same_seed_byte_identical_artifacts(self):
        first = run_cheap(traced(CHEAP_CLUSTER), seed=9)
        second = run_cheap(traced(CHEAP_CLUSTER), seed=9)
        assert first.telemetry.trace_json() == second.telemetry.trace_json()
        assert first.telemetry.metrics_json() \
            == second.telemetry.metrics_json()
        third = run_cheap(traced(CHEAP_CLUSTER), seed=10)
        assert first.telemetry.trace_json() != third.telemetry.trace_json()

    def test_inline_and_pool_runs_byte_identical(self):
        spec = self._sweep_spec()
        inline = SweepRunner(spec, workers=0, progress=None).run()
        pooled = SweepRunner(spec, workers=2, progress=None).run()
        for _, inline_run in inline:
            coords = {"policy": inline_run.service.policy}
            pooled_run = pooled.run_for(**coords)
            assert inline_run.telemetry is not None
            assert inline_run.telemetry.trace_json() \
                == pooled_run.telemetry.trace_json()
            assert inline_run.telemetry.metrics_json() \
                == pooled_run.telemetry.metrics_json()

    def test_render_trace_is_canonical(self):
        recorder = TraceRecorder(capacity=8)
        recorder.instant("t", "e", 1.0, ("b", "a"), 2, 1)
        doc = trace_document(list(recorder.events))
        text = render_trace(doc)
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))


class TestEmptyRunReporting:
    def test_empty_recorder_accessors_return_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.mean_us())
        assert math.isnan(recorder.percentile_us(0.99))
        assert recorder.summary_us() == {
            "count": 0, "mean_us": 0.0, "p50_us": 0.0, "p95_us": 0.0,
            "p99_us": 0.0,
        }

    def test_bare_percentile_stays_loud(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_shed_everything_run_still_reports(self):
        spec = dataclasses.replace(
            CHEAP_CLUSTER,
            admission=dataclasses.replace(
                CHEAP_CLUSTER.admission or
                default_cluster_spec().admission,
                spill_threshold=0.0, shed_threshold=0.0),
        )
        result = run_cheap(spec, duration_ns=2e5)
        row = result.row()
        assert row["completed"] == 0
        # summary_us() keeps the defined zero dict, so the row renders.
        assert result.service.mean_us == 0.0 and result.service.p99_us == 0.0


class TestTelemetryPhaseChains:
    def test_assert_request_phases_rejects_gaps(self):
        recorder = TraceRecorder(capacity=16)
        recorder.instant("scheduler", "admit", 0.0, ("req",), 1)
        recorder.instant("scheduler", "complete", 9.0, ("req",), 1)
        doc = trace_document(list(recorder.events))
        with pytest.raises(TelemetryError, match="lacks phase"):
            assert_request_phases(doc)

    def test_assert_request_phases_requires_a_chain(self):
        recorder = TraceRecorder(capacity=16)
        recorder.instant("scheduler", "admit", 0.0, ("req",), 1)
        doc = trace_document(list(recorder.events))
        with pytest.raises(TelemetryError, match="no completed request"):
            assert_request_phases(doc)


class TestPicklableReport:
    def test_report_survives_pickle(self):
        import pickle

        result = run_cheap(traced(CHEAP_CLUSTER))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.telemetry.trace_json() \
            == result.telemetry.trace_json()
        assert clone.metrics_rows() == result.metrics_rows()

    def test_live_telemetry_stays_behind(self):
        cluster = Cluster.from_spec(traced(CHEAP_CLUSTER))
        assert isinstance(cluster.telemetry, Telemetry)
        cluster.open_loop(offered_gbps=2.0, duration_ns=2e5,
                          tenants=2, seed=1)
        result = cluster.run()
        assert not isinstance(result.telemetry, Telemetry)
