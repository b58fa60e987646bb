"""Run-health analysis tests: objectives, burn rates, scanners, profiler.

Unit scenarios drive :mod:`repro.telemetry.analysis` and
:mod:`repro.telemetry.profiler` on synthetic data (fake clocks, hand
built metrics rows); integration scenarios run small real clusters and
assert on the full chain — a violating run must produce a ``fail``
:class:`HealthReport` whose burn-rate alert also lands as a
control-track instant in the exported trace, and health text must be
byte-identical between inline and pooled sweep execution.
"""

import dataclasses
import json

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    DeviceSpec,
    FleetSpec,
    TelemetrySpec,
    default_cluster_spec,
)
from repro.cluster.clients import ClusterClient
from repro.cluster.session import PROFILED_SPANS
from repro.cluster.spec import AdmissionSpec, StoreSpec
from repro.errors import ClusterSpecError, TelemetryError
from repro.sweep import SweepAxis, SweepRunner, SweepSpec, WorkloadSpec
from repro.telemetry import (
    BurnWindow,
    SloObjective,
    WallClockProfiler,
    build_health,
    evaluate_objectives,
)

CHEAP_CLUSTER = ClusterSpec(
    fleet=FleetSpec(
        devices=(DeviceSpec("cpu", algorithm="snappy", threads=4),),
    ),
)

STORE_CLUSTER = dataclasses.replace(
    CHEAP_CLUSTER,
    store=StoreSpec(block_bytes=4096, segment_bytes=16384,
                    cache_blocks=64, ghost_blocks=128, client_window=4),
)

OVERLOAD_CLUSTER = ClusterSpec(
    fleet=FleetSpec(
        devices=(DeviceSpec("cpu", algorithm="snappy", threads=2),),
    ),
    admission=AdmissionSpec(),
)


def traced(spec: ClusterSpec, **kwargs) -> ClusterSpec:
    kwargs.setdefault("trace", True)
    kwargs.setdefault("metrics_interval_ns", 1e5)
    return dataclasses.replace(spec, telemetry=TelemetrySpec(**kwargs))


def run_cluster(spec: ClusterSpec, duration_ns: float = 4e5,
                offered_gbps: float = 2.0, seed: int = 11,
                profile: bool = False):
    cluster = Cluster.from_spec(spec)
    if profile:
        cluster.enable_profiling()
    cluster.open_loop(offered_gbps=offered_gbps, duration_ns=duration_ns,
                      tenants=2, seed=seed)
    return cluster.run()


def rows_for(values: list[float], column: str = "shed_rate",
             step_ms: float = 0.1) -> list[dict]:
    """Synthetic metrics rows: one column sampled at a fixed period."""
    return [{"t_ms": round((i + 1) * step_ms, 6), column: value}
            for i, value in enumerate(values)]


class TestSloObjective:
    def test_validation(self):
        with pytest.raises(TelemetryError, match="name"):
            SloObjective(name="", column="x", limit=1.0)
        with pytest.raises(TelemetryError, match="sense"):
            SloObjective(name="o", column="x", limit=1.0, sense="exact")
        with pytest.raises(TelemetryError, match="budget"):
            SloObjective(name="o", column="x", limit=1.0, budget=0.0)
        with pytest.raises(TelemetryError, match="scope"):
            SloObjective(name="o", column="x", limit=1.0, scope="global")
        with pytest.raises(TelemetryError, match="unknown key"):
            SloObjective.from_dict({"name": "o", "column": "x",
                                    "limit": 1.0, "celing": 2.0})

    def test_violated_semantics(self):
        ceiling = SloObjective(name="cap", column="power_w", limit=100.0)
        assert ceiling.violated(100.1) and not ceiling.violated(100.0)
        floor = SloObjective(name="hits", column="hit_rate", limit=0.5,
                             sense="min")
        assert floor.violated(0.49) and not floor.violated(0.5)

    def test_spec_round_trip(self):
        objective = SloObjective(name="shed", column="shed_rate",
                                 limit=0.0, budget=0.02,
                                 description="no shedding")
        spec = dataclasses.replace(
            default_cluster_spec(),
            telemetry=TelemetrySpec(trace=True, metrics_interval_ns=1e5,
                                    objectives=(objective,)))
        again = ClusterSpec.from_json(spec.to_json())
        assert again == spec
        assert again.telemetry.objectives[0].budget == 0.02

    def test_duplicate_objective_names_rejected(self):
        objective = SloObjective(name="shed", column="shed_rate",
                                 limit=0.0)
        with pytest.raises(ClusterSpecError, match="duplicate"):
            TelemetrySpec(metrics_interval_ns=1e5,
                          objectives=(objective, objective))


class TestBurnRates:
    SHED = SloObjective(name="shed", column="shed_rate", limit=0.0,
                        budget=0.02)

    def test_window_validation(self):
        with pytest.raises(TelemetryError, match="short_frac"):
            BurnWindow("w", long_frac=0.1, short_frac=0.2,
                       factor=2.0, severity="warn")
        with pytest.raises(TelemetryError, match="factor"):
            BurnWindow("w", long_frac=0.1, short_frac=0.05,
                       factor=0.0, severity="warn")
        with pytest.raises(TelemetryError, match="severity"):
            BurnWindow("w", long_frac=0.1, short_frac=0.05,
                       factor=2.0, severity="email")

    def test_healthy_series_fires_nothing(self):
        rows = rows_for([0.0] * 40)
        assert evaluate_objectives(rows, [self.SHED],
                                   horizon_ns=4e6) == []

    def test_sustained_violation_pages_with_evidence_window(self):
        rows = rows_for([0.0] * 10 + [0.5] * 30)
        alerts = evaluate_objectives(rows, [self.SHED], horizon_ns=4e6)
        pages = [a for a in alerts if a.severity == "page"]
        assert len(pages) == 1
        page = pages[0]
        assert page.objective == "shed"
        assert page.window == "fast"
        assert page.burn_rate >= 10.0
        # Evidence window covers the burn region and nothing after it.
        assert page.window_start_ms < page.window_end_ms <= 4.0
        assert page.worst_value == 0.5

    def test_no_alert_before_long_window_fills(self):
        # A violating very first sample must not page: the long window
        # is not yet inside the run.
        rows = rows_for([1.0] + [0.0] * 39)
        alerts = evaluate_objectives(rows, [self.SHED], horizon_ns=4e6)
        assert [a for a in alerts if a.severity == "page"] == []

    def test_consecutive_firing_samples_merge_into_one_alert(self):
        rows = rows_for([0.0] * 5 + [1.0] * 35)
        alerts = evaluate_objectives(rows, [self.SHED], horizon_ns=4e6)
        # One merged region per window pair, not one alert per sample.
        assert len([a for a in alerts if a.window == "fast"]) == 1
        assert len([a for a in alerts if a.window == "slow"]) == 1

    def test_min_sense_floor(self):
        floor = SloObjective(name="hits", column="hit_rate", limit=0.8,
                             sense="min", budget=0.05)
        rows = rows_for([0.9] * 20 + [0.1] * 20, column="hit_rate")
        alerts = evaluate_objectives(rows, [floor], horizon_ns=4e6)
        assert any(a.severity == "page" for a in alerts)
        worst = [a for a in alerts if a.severity == "page"][0].worst_value
        assert worst == 0.1

    def test_run_scope_checks_run_row_once(self):
        bound = SloObjective(name="p99", column="p99_us", limit=50.0,
                             scope="run")
        alerts = evaluate_objectives([], [bound],
                                     run_row={"p99_us": 80.0})
        assert len(alerts) == 1
        assert alerts[0].window == "run"
        assert alerts[0].worst_value == 80.0
        assert evaluate_objectives([], [bound],
                                   run_row={"p99_us": 10.0}) == []

    def test_missing_column_skipped_in_evaluation(self):
        rows = rows_for([0.0] * 10, column="other")
        assert evaluate_objectives(rows, [self.SHED],
                                   horizon_ns=1e6) == []


class TestBuildHealth:
    def test_empty_rows_pass_with_info_finding(self):
        report = build_health([])
        assert report.verdict == "pass"
        assert [f.kind for f in report.findings] == ["no-metrics"]

    def test_saturation_plateau_warns(self):
        rows = [{"t_ms": 0.1 * (i + 1), "util_cpu": v}
                for i, v in enumerate([0.5, 0.99, 1.0, 0.99, 0.5])]
        report = build_health(rows)
        kinds = [f.kind for f in report.findings]
        assert "saturation" in kinds and report.verdict == "warn"
        finding = next(f for f in report.findings
                       if f.kind == "saturation")
        assert finding.window_start_ms == pytest.approx(0.2)
        assert finding.window_end_ms == pytest.approx(0.4)

    def test_short_saturation_blip_ignored(self):
        rows = [{"t_ms": 0.1 * (i + 1), "util_cpu": v}
                for i, v in enumerate([0.5, 1.0, 0.5, 1.0, 0.5])]
        assert build_health(rows).verdict == "pass"

    def test_cache_collapse_warns(self):
        rows = [{"t_ms": 0.1 * (i + 1), "hit_rate": v}
                for i, v in enumerate([0.1, 0.6, 0.7, 0.2])]
        report = build_health(rows)
        assert any(f.kind == "cache-collapse" for f in report.findings)

    def test_span_gap_fails_only_with_zero_drops(self):
        events = [
            ("X", "scheduler", "dispatch", 0.0, 1.0, {"req": 1}),
            ("X", "scheduler", "complete", 1.0, 1.0, {"req": 1}),
        ]
        broken = build_health([], events=events, dropped=0)
        assert broken.verdict == "fail"
        assert any(f.kind == "span-gap" for f in broken.findings)
        # With drops, the missing admit span is expected data loss.
        lossy = build_health([], events=events, recorded=10, dropped=3)
        assert not any(f.kind == "span-gap" for f in lossy.findings)
        assert any(f.kind == "span-loss" for f in lossy.findings)
        assert lossy.verdict == "warn"

    def test_missing_declared_column_fails_default_informs(self):
        rows = rows_for([0.0] * 5, column="present")
        declared = SloObjective(name="gone", column="absent", limit=1.0)
        report = build_health(rows, objectives=[declared])
        assert report.verdict == "fail"
        defaulted = dataclasses.replace(declared, source="default")
        report = build_health(rows, objectives=[defaulted])
        assert report.verdict == "pass"
        assert any(f.kind == "missing-column" and f.severity == "info"
                   for f in report.findings)

    def test_report_text_lists_objective_verdicts(self):
        rows = rows_for([0.0] * 10 + [0.5] * 30)
        shed = SloObjective(name="shed", column="shed_rate", limit=0.0,
                            budget=0.02)
        report = build_health(rows, horizon_ns=4e6, objectives=[shed])
        text = report.to_text()
        assert "run health: FAIL" in text
        assert "[fail] shed" in text
        assert report.objective_verdict("shed") == "fail"
        assert report.row() == {"health": "fail",
                                "alerts": len(report.alerts)}
        markdown = report.to_markdown()
        assert "**FAIL**" in markdown and "| shed |" in markdown


class TestWallClockProfiler:
    def make(self, ticks):
        clock = iter(ticks)
        return WallClockProfiler(clock=lambda: next(clock))

    def test_self_time_is_disjoint(self):
        # begin=0, outer push=10, inner push=20, inner pop=50,
        # outer pop=70, end=100: inner self 30, outer self 30.
        profiler = self.make([0, 10, 20, 50, 70, 100])
        profiler.begin()
        profiler.push("engine")
        profiler.push("scheduler")
        profiler.pop()
        profiler.pop()
        profiler.end()
        profile = profiler.profile()
        assert profile.self_s["scheduler"] == pytest.approx(30e-9)
        assert profile.self_s["engine"] == pytest.approx(30e-9)
        assert profile.total_s == pytest.approx(100e-9)
        assert profile.attributed_s == pytest.approx(60e-9)
        assert profile.calls == {"engine": 1, "scheduler": 1}

    def test_section_cap_drops_intervals_not_totals(self):
        ticks = iter(range(0, 100000))
        profiler = WallClockProfiler(clock=lambda: next(ticks),
                                     section_cap=2)
        profiler.begin()
        for _ in range(5):
            profiler.push("s")
            profiler.pop()
        profiler.end()
        profile = profiler.profile()
        assert profile.sections_recorded == 2
        assert profile.sections_dropped == 3
        assert profile.calls["s"] == 5

    def test_wrap_bills_calls(self):
        class Thing:
            def work(self, x):
                return x * 2

        original = Thing.__dict__["work"]
        ticks = iter(range(0, 1000, 10))
        profiler = WallClockProfiler(clock=lambda: next(ticks))
        thing = Thing()
        profiler.begin(((Thing, "work", "store"),))
        assert Thing.__dict__["work"] is not original
        assert thing.work(21) == 42
        assert profiler.calls["store"] == 1
        profiler.end()
        # The wrapper is run-scoped: the class gets its method back.
        assert Thing.__dict__["work"] is original
        assert thing.work(21) == 42
        assert profiler.calls["store"] == 1

    def test_rows_and_text_are_renderable(self):
        profiler = self.make([0, 10, 90, 100])
        profiler.begin()
        profiler.push("engine")
        profiler.pop()
        profiler.end()
        profile = profiler.profile()
        rows = profile.rows()
        assert rows[-1]["subsystem"] == "(total)"
        assert "coverage" in profile.to_text()


class TestHealthIntegration:
    def test_healthy_run_passes(self):
        result = run_cluster(traced(CHEAP_CLUSTER))
        health = result.health()
        assert health.verdict == "pass"
        assert health.samples > 0
        # Default objectives ride along even when none are declared.
        assert any(o.name == "shed-ceiling" for o in health.objectives)

    def test_violating_run_fails_and_annotates_trace(self):
        result = run_cluster(traced(OVERLOAD_CLUSTER,
                                    metrics_interval_ns=2e4),
                             duration_ns=6e5, offered_gbps=60.0, seed=7)
        health = result.health()
        assert health.verdict == "fail"
        pages = [a for a in health.alerts if a.severity == "page"]
        assert pages, "overloaded run must page the shed-ceiling monitor"
        page = pages[0]
        assert page.window_end_ms > page.window_start_ms
        assert "shed-ceiling" in health.to_text()
        # The same alerts land as instants on the trace control track.
        doc = result.telemetry.trace_document()
        instants = [e for e in doc["traceEvents"]
                    if e.get("cat") == "alert"]
        assert len(instants) == len(health.alerts)
        named = [e for e in instants
                 if e["name"] == "alert:shed-ceiling"]
        assert named and named[0]["ph"] == "i"
        args = named[0]["args"]
        assert args["window_end_ms"] >= args["window_start_ms"]

    def test_declared_objective_joins_defaults(self):
        spec = traced(CHEAP_CLUSTER)
        spec = dataclasses.replace(spec, telemetry=dataclasses.replace(
            spec.telemetry,
            objectives=(SloObjective(name="impossible",
                                     column="utilization", limit=2.0,
                                     sense="min"),)))
        health = run_cluster(spec).health()
        assert health.objective_verdict("impossible") == "fail"
        assert health.verdict == "fail"

    def test_trace_only_run_reports_no_metrics(self):
        result = run_cluster(traced(CHEAP_CLUSTER,
                                    metrics_interval_ns=None))
        assert result.metrics_rows() == []
        health = result.health()
        assert health.verdict == "pass"
        assert any(f.kind == "no-metrics" for f in health.findings)

    def test_interval_equal_to_horizon_yields_one_sample(self):
        result = run_cluster(traced(CHEAP_CLUSTER,
                                    metrics_interval_ns=4e5))
        assert len(result.metrics_rows()) == 1
        assert result.health().samples == 1

    def test_profiled_run_bills_each_event_and_keeps_the_trace(self):
        spec = traced(CHEAP_CLUSTER, metrics_interval_ns=None)
        plain = run_cluster(spec, duration_ns=2e6)
        profiled = run_cluster(spec, duration_ns=2e6, profile=True)
        telemetry = profiled.telemetry
        assert telemetry.recorded > 100 and telemetry.host_sections
        assert profiled.wall_profile.calls["telemetry"] \
            == telemetry.recorded
        # The host-clock track differs run to run; everything in
        # simulated time must not.
        assert dataclasses.replace(telemetry, host_sections=[]) \
            .trace_json() == plain.telemetry.trace_json()

    def test_interval_beyond_horizon_is_loud(self):
        cluster = Cluster.from_spec(
            traced(CHEAP_CLUSTER, metrics_interval_ns=5e5))
        cluster.open_loop(offered_gbps=2.0, duration_ns=4e5,
                          tenants=2, seed=11)
        with pytest.raises(TelemetryError,
                           match="TelemetrySpec.metrics_interval_ns"):
            cluster.run()

    def test_health_text_deterministic_across_runs(self):
        first = run_cluster(traced(CHEAP_CLUSTER), seed=9)
        second = run_cluster(traced(CHEAP_CLUSTER), seed=9)
        assert first.health().to_text() == second.health().to_text()
        assert first.health().to_markdown() \
            == second.health().to_markdown()


class TestProfilerIntegration:
    def test_profiled_run_covers_the_wall_clock(self):
        result = run_cluster(traced(CHEAP_CLUSTER), profile=True)
        profile = result.wall_profile
        assert profile is not None
        assert profile.total_s > 0
        # Acceptance: per-subsystem totals sum within 10% of the
        # measured window.
        assert profile.coverage >= 0.9
        assert {"engine", "scheduler", "telemetry"} <= set(profile.self_s)
        # And the sections export as a pid-2 host-clock track.
        doc = result.telemetry.trace_document()
        host = [e for e in doc["traceEvents"] if e.get("cat") == "host"]
        assert host and all(e["pid"] == 2 for e in host)

    def test_unprofiled_run_has_no_profile(self):
        result = run_cluster(traced(CHEAP_CLUSTER))
        assert result.wall_profile is None
        assert result.telemetry.host_sections == []

    def test_profile_does_not_change_simulation(self):
        plain = run_cluster(traced(CHEAP_CLUSTER), seed=13)
        profiled = run_cluster(traced(CHEAP_CLUSTER), seed=13,
                               profile=True)
        assert plain.telemetry.metrics_json() \
            == profiled.telemetry.metrics_json()
        assert plain.health().to_text() == profiled.health().to_text()

    @staticmethod
    def _originals() -> dict:
        return {(owner, attr): owner.__dict__[attr]
                for owner, attr, _ in PROFILED_SPANS}

    @staticmethod
    def _assert_restored(originals: dict) -> None:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is original, \
                f"{owner.__name__}.{attr} still wrapped"

    def test_profiled_run_restores_every_method(self):
        originals = self._originals()
        result = run_cluster(traced(CHEAP_CLUSTER), profile=True)
        assert result.wall_profile.calls["scheduler"] > 0
        self._assert_restored(originals)

    def test_run_that_raises_mid_run_restores_every_method(
            self, monkeypatch):
        originals = self._originals()
        record = ClusterClient._record_completion

        def failing_record(client, request):
            if client.sim.now >= 2e5:
                raise RuntimeError("client hook failed")
            record(client, request)
        monkeypatch.setattr(ClusterClient, "_record_completion",
                            failing_record)
        cluster = Cluster.from_spec(traced(CHEAP_CLUSTER))
        profiler = cluster.enable_profiling()
        cluster.open_loop(offered_gbps=2.0, duration_ns=4e5, tenants=2,
                          seed=11)
        with pytest.raises(RuntimeError, match="client hook failed"):
            cluster.run()
        assert 0 < cluster.sim.now < 4e5
        self._assert_restored(originals)
        # The raise unwound through the wrappers: every section closed.
        assert profiler.calls["scheduler"] > 0
        assert profiler.calls["engine"] == 1

    def test_profiled_store_run_bills_each_get_and_put(self):
        def run(profile: bool):
            cluster = Cluster.from_spec(STORE_CLUSTER)
            if profile:
                cluster.enable_profiling()
            cluster.store_client(offered_gbps=1.0, duration_ns=4e5,
                                 blocks=256, seed=5)
            return cluster, cluster.run()

        _, plain = run(profile=False)
        cluster, profiled = run(profile=True)
        metrics = cluster.store.metrics
        assert metrics.reads > 0 and metrics.writes > 0
        assert profiled.wall_profile.calls["store"] \
            == metrics.reads + metrics.writes
        assert profiled.row() == plain.row()
        assert profiled.clients == plain.clients


class TestSweepHealth:
    def _sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            cluster=traced(CHEAP_CLUSTER),
            workload=WorkloadSpec(mode="open-loop", duration_ns=3e5,
                                  offered_gbps=2.0, tenants=2),
            axes=(SweepAxis.over("policy", "policy",
                                 ("round-robin", "cost-model")),),
            root_seed=21,
        )

    def test_inline_and_pool_health_byte_identical(self):
        spec = self._sweep_spec()
        inline = SweepRunner(spec, workers=0, progress=None).run()
        pooled = SweepRunner(spec, workers=2, progress=None).run()
        for _, inline_run in inline:
            pooled_run = pooled.run_for(
                policy=inline_run.service.policy)
            assert inline_run.health().to_text() \
                == pooled_run.health().to_text()

    def test_sweep_rows_carry_health_columns(self):
        result = SweepRunner(self._sweep_spec(), workers=0,
                             progress=None).run()
        for row in result.rows():
            assert row["health"] in ("pass", "warn", "fail")
            assert isinstance(row["alerts"], int)


class TestTrajectoryCheck:
    def entry(self, disabled=10000.0, trace=8000.0, full=7500.0,
              date="2026-08-07"):
        return {
            "date": date,
            "disabled": {"simulated_requests": 780, "best_wall_s": 0.05,
                         "requests_per_sec": disabled},
            "trace": {"simulated_requests": 780, "best_wall_s": 0.06,
                      "requests_per_sec": trace},
            "trace_and_metrics": {"simulated_requests": 780,
                                  "best_wall_s": 0.07,
                                  "requests_per_sec": full},
        }

    def check(self, entries, **kwargs):
        import importlib.util
        import pathlib
        path = pathlib.Path(__file__).parent.parent \
            / "benchmarks" / "trajectory.py"
        module_spec = importlib.util.spec_from_file_location(
            "trajectory", path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module.check({"trajectory": entries}, **kwargs)

    def test_healthy_trajectory(self):
        entries = [self.entry(), self.entry(disabled=10500.0)]
        assert self.check(entries) == []

    def test_regression_detected(self):
        entries = [self.entry(), self.entry(disabled=4000.0,
                                            trace=3000.0, full=2900.0)]
        failures = self.check(entries, threshold=0.6)
        assert any("regressed" in failure for failure in failures)

    def test_guard_regression_detected(self):
        entries = [self.entry(disabled=6000.0, trace=10000.0,
                              full=9000.0)]
        failures = self.check(entries)
        assert any("fastest" in failure for failure in failures)

    def test_empty_trajectory_is_a_failure(self):
        assert self.check([]) != []


class TestRunResultSchema:
    def test_wall_profile_round_trips_through_pickle(self):
        import pickle
        result = run_cluster(traced(CHEAP_CLUSTER), profile=True)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.wall_profile.coverage \
            == result.wall_profile.coverage
        assert clone.health().to_text() == result.health().to_text()

    def test_trace_json_with_alerts_is_canonical(self):
        result = run_cluster(traced(OVERLOAD_CLUSTER,
                                    metrics_interval_ns=2e4),
                             duration_ns=6e5, offered_gbps=60.0, seed=7)
        text = result.telemetry.trace_json()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))
