"""Federation tests: specs, routing, populations, dispatch liveness.

Spec/validation scenarios are pure document manipulation; the serving
scenarios run small real federations (two cheap CPU clusters on one
shared simulator).  The dispatch scenarios drive the keyed protocol
against scripted in-thread workers whose misbehavior is gated on
events, so crash/timeout/requeue paths are exercised deterministically
instead of racing the scheduler.
"""

import json
import math
import pickle
import random
import socket
import struct
import threading
import time
from bisect import bisect_right
from multiprocessing.connection import (
    AuthenticationError,
    Client,
    Connection,
    Listener,
)
from pathlib import Path
from queue import SimpleQueue

import pytest

from repro.cluster import (
    ClusterSpec,
    DeviceSpec,
    FleetSpec,
    StoreSpec,
    TelemetrySpec,
)
from repro.errors import (
    DispatchError,
    FederationError,
    FederationSpecError,
    SweepError,
    SweepSpecError,
    TelemetryError,
    WorkloadError,
)
from repro.federation import (
    PROTOCOL_VERSION,
    Federation,
    FederationMemberSpec,
    FederationSpec,
    LinkSpec,
    SocketWorkerPool,
    example_federation_spec,
    spawn_local_workers,
)
from repro.experiments.cli import main as cli_main
from repro.federation import dispatch
from repro.federation.dispatch import KEY_ENV, receive, serve_worker
from repro.sweep import SweepAxis, SweepRunner, SweepSpec, WorkloadSpec
from repro.sweep.runner import execute_point
from repro.telemetry import DISABLED, Telemetry
from repro.workloads.population import (
    DiurnalSpec,
    TenantPopulation,
    TenantPopulationSpec,
    realize_population,
)

CHEAP_FLEET = FleetSpec(
    devices=(DeviceSpec("cpu", algorithm="snappy", threads=4),),
)


def cheap_member(name: str, latency_ns: float = 1_000.0
                 ) -> FederationMemberSpec:
    return FederationMemberSpec(
        name=name,
        cluster=ClusterSpec(fleet=CHEAP_FLEET),
        link=LinkSpec(latency_ns=latency_ns, bandwidth_gbps=12.5),
    )


def cheap_federation(routing: str = "static-pinning",
                     latency_ns: float = 1_000.0,
                     **kwargs) -> FederationSpec:
    kwargs.setdefault("workload", WorkloadSpec(
        mode="open-loop", duration_ns=2e5, offered_gbps=6.0, tenants=4))
    return FederationSpec(
        members=(cheap_member("alpha", latency_ns),
                 cheap_member("beta", latency_ns)),
        routing=routing, **kwargs)


# -- fabric links --------------------------------------------------------------


class TestLinkSpec:
    def test_transfer_cost_is_latency_plus_streaming(self):
        link = LinkSpec(latency_ns=2_000.0, bandwidth_gbps=10.0)
        assert link.transfer_ns(0) == 2_000.0
        # 50 KB at 10 GB/s == 10 bytes/ns -> 5000 ns on the wire.
        assert link.transfer_ns(50_000) == pytest.approx(7_000.0)

    def test_pcie_attachment_derives_bandwidth(self):
        link = LinkSpec(latency_ns=0.0, pcie_generation=4, pcie_lanes=4)
        assert link.effective_bandwidth_gbps > 0
        # An explicit bandwidth wins over the PCIe derivation.
        both = LinkSpec(bandwidth_gbps=3.0, pcie_generation=4)
        assert both.effective_bandwidth_gbps == 3.0

    def test_link_needs_some_bandwidth(self):
        with pytest.raises(FederationSpecError, match="bandwidth"):
            LinkSpec(latency_ns=10.0)

    def test_bad_values_rejected(self):
        with pytest.raises(FederationSpecError):
            LinkSpec(latency_ns=-1.0, bandwidth_gbps=1.0)
        with pytest.raises(FederationSpecError):
            LinkSpec(bandwidth_gbps=0.0)
        with pytest.raises(FederationSpecError):
            LinkSpec(pcie_generation=99)

    def test_unknown_key_rejected(self):
        with pytest.raises(FederationSpecError, match="lanes"):
            LinkSpec.from_dict({"bandwidth_gbps": 1.0, "lanes": 8})


# -- federation documents ------------------------------------------------------


class TestFederationSpec:
    def test_example_round_trips_through_json(self):
        spec = example_federation_spec()
        assert FederationSpec.from_json(spec.to_json()) == spec
        assert len(spec.members) >= 3
        assert spec.workload.population.tenants >= 100_000

    def test_checked_in_example_is_the_built_in_spec(self):
        path = Path(__file__).resolve().parent.parent / "examples" \
            / "federation.json"
        text = path.read_text(encoding="utf-8")
        assert text == example_federation_spec().to_json() + "\n"
        assert FederationSpec.from_json(text).to_json() + "\n" == text

    def test_unknown_top_level_key_rejected(self):
        data = cheap_federation().to_dict()
        data["routin"] = "least-loaded"
        with pytest.raises(FederationSpecError, match="routin"):
            FederationSpec.from_dict(data)

    def test_needs_two_members_with_unique_names(self):
        with pytest.raises(FederationSpecError, match="two member"):
            FederationSpec(members=(cheap_member("solo"),))
        with pytest.raises(FederationSpecError, match="duplicate"):
            FederationSpec(members=(cheap_member("twin"),
                                    cheap_member("twin")))

    def test_member_name_must_be_slash_free(self):
        with pytest.raises(FederationSpecError, match="slash"):
            cheap_member("east/1")

    def test_member_may_not_declare_telemetry(self):
        with pytest.raises(FederationSpecError, match="telemetry"):
            FederationMemberSpec(
                name="east",
                cluster=ClusterSpec(fleet=CHEAP_FLEET,
                                    telemetry=TelemetrySpec(trace=True)))

    def test_member_may_not_declare_store(self):
        with pytest.raises(FederationSpecError, match="store"):
            FederationMemberSpec(
                name="east",
                cluster=ClusterSpec(fleet=CHEAP_FLEET,
                                    store=StoreSpec()))

    def test_unknown_routing_policy_rejected(self):
        with pytest.raises(FederationSpecError, match="routing"):
            cheap_federation(routing="random")

    def test_affinity_threshold_bounds(self):
        with pytest.raises(FederationSpecError, match="threshold"):
            cheap_federation(affinity_threshold=0.0)
        with pytest.raises(FederationSpecError, match="threshold"):
            cheap_federation(affinity_threshold=1.5)

    def test_workload_must_be_open_loop(self):
        with pytest.raises(FederationSpecError, match="open-loop"):
            cheap_federation(workload=WorkloadSpec(mode="closed-loop"))

    def test_bad_json_and_missing_members(self):
        with pytest.raises(FederationSpecError, match="JSON"):
            FederationSpec.from_json("{not json")
        with pytest.raises(FederationSpecError, match="members"):
            FederationSpec.from_dict({"routing": "least-loaded"})


# -- million-user traffic model ------------------------------------------------


class TestPopulation:
    def test_pareto_population_is_heavy_tailed(self):
        population = realize_population(TenantPopulationSpec(
            tenants=10_000, distribution="pareto", alpha=1.1, seed=7))
        # Uniform baseline: the top 1% would carry exactly 1%.
        assert population.top_share(0.01) > 0.2
        assert population.top_share(1.0) == pytest.approx(1.0)

    def test_tenant_draws_are_deterministic_and_in_range(self):
        spec = TenantPopulationSpec(tenants=1_000, seed=11)
        population = realize_population(spec)
        draws = [population.tenant_for(u / 97.0) for u in range(97)]
        assert draws == [population.tenant_for(u / 97.0)
                         for u in range(97)]
        assert all(0 <= t < 1_000 for t in draws)
        assert population.tenant_for(0.999999999) < 1_000

    def test_double_array_table_draws_like_a_float_list(self):
        spec = TenantPopulationSpec(tenants=5_000, distribution="pareto",
                                    alpha=1.1, seed=9)
        population = TenantPopulation(spec)
        assert population._cumulative.typecode == "d"
        # The list-backed table the population used to build.
        rng = random.Random(spec.seed)
        total, cumulative = 0.0, []
        for _ in range(spec.tenants):
            total += rng.paretovariate(spec.alpha)
            cumulative.append(total)

        def reference(u: float) -> int:
            return min(bisect_right(cumulative, u * total),
                       spec.tenants - 1)

        draws = random.Random(1)
        us = [draws.random() for _ in range(20_000)]
        us += [0.0, 0.5, math.nextafter(1.0, 0.0), 1.0]
        assert [population.tenant_for(u) for u in us] == \
            [reference(u) for u in us]
        assert population.tenant_for(1.0) == spec.tenants - 1
        assert list(population._cumulative) == cumulative
        weights = sorted((b - a for a, b in zip([0.0, *cumulative],
                                                 cumulative)),
                         reverse=True)
        assert population.top_share(0.01) == sum(weights[:50]) / total

    def test_realized_populations_are_cached(self):
        spec = TenantPopulationSpec(tenants=500, seed=3)
        assert realize_population(spec) is realize_population(
            TenantPopulationSpec(tenants=500, seed=3))

    def test_lognormal_law_supported(self):
        population = realize_population(TenantPopulationSpec(
            tenants=2_000, distribution="lognormal", sigma=2.5, seed=5))
        assert population.top_share(0.01) > 0.05

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            TenantPopulationSpec(tenants=0)
        with pytest.raises(WorkloadError):
            TenantPopulationSpec(distribution="zipf")
        with pytest.raises(WorkloadError, match="unknown key"):
            TenantPopulationSpec.from_dict({"tenant": 10})

    def test_diurnal_rate_swings_about_one(self):
        diurnal = DiurnalSpec(period_ns=1e6, amplitude=0.5)
        assert diurnal.rate_at(0.0) == pytest.approx(1.0)
        assert diurnal.rate_at(0.25e6) == pytest.approx(1.5)
        assert diurnal.rate_at(0.75e6) == pytest.approx(0.5)
        with pytest.raises(WorkloadError):
            DiurnalSpec(amplitude=1.0)
        with pytest.raises(WorkloadError):
            DiurnalSpec(period_ns=0.0)

    def test_workload_spec_carries_population_and_diurnal(self):
        workload = WorkloadSpec(
            mode="open-loop", duration_ns=2e5,
            population=TenantPopulationSpec(tenants=1_000),
            diurnal=DiurnalSpec(period_ns=1e5, amplitude=0.3))
        round_tripped = WorkloadSpec.from_dict(
            json.loads(json.dumps(workload.to_dict())))
        assert round_tripped.population == workload.population
        assert round_tripped.diurnal == workload.diurnal
        with pytest.raises(SweepSpecError):
            WorkloadSpec(mode="closed-loop",
                         population=TenantPopulationSpec(tenants=10))


# -- scoped telemetry ----------------------------------------------------------


class TestScopedTelemetry:
    def test_scoped_view_prefixes_tracks(self):
        root = Telemetry(tracing=True)
        east = root.scoped("east")
        east.span("scheduler", "submit", 0.0, 10.0)
        east.instant("control", "alert", 5.0)
        tracks = [event[1] for event in root.trace.events]
        assert tracks == ["east/scheduler", "east/control"]

    def test_ids_stay_globally_monotonic_across_scopes(self):
        root = Telemetry(tracing=True)
        a, b = root.scoped("a"), root.scoped("b")
        ids = [a.next_id(), b.next_id(), root.next_id(), a.next_id()]
        assert ids == [1, 2, 3, 4]

    def test_scopes_compose_and_disabled_scopes_to_disabled(self):
        root = Telemetry(tracing=True)
        nested = root.scoped("east").scoped("rack0")
        nested.span("dev", "op", 0.0, 1.0)
        assert root.trace.events[0][1] == "east/rack0/dev"
        assert DISABLED.scoped("east") is DISABLED


# -- federated serving ---------------------------------------------------------


class TestFederationRun:
    def test_static_pinning_never_goes_remote(self):
        result = Federation.from_spec(cheap_federation()).run()
        assert result.router.total_remote == 0
        assert result.row()["remote_fraction"] == 0.0
        assert result.run.service.completed > 0
        # Both homes saw traffic (tenants hash across members).
        assert all(routed > 0 for routed in result.router.routed)

    def test_merged_counters_sum_member_counters(self):
        result = Federation.from_spec(
            cheap_federation("least-loaded")).run()
        merged = result.run.service
        assert merged.completed == sum(report.completed
                                       for _, report in result.members)
        assert merged.window_bytes == sum(report.window_bytes
                                          for _, report in result.members)
        assert merged.policy == "federated/least-loaded"
        clusters = [row["cluster"] for row in result.member_rows()]
        assert clusters == ["alpha", "beta"]

    def test_least_loaded_routing_goes_remote(self):
        result = Federation.from_spec(
            cheap_federation("least-loaded")).run()
        assert result.router.total_remote > 0
        rows = result.router_rows()
        assert sum(row["remote_request_bytes"] for row in rows) > 0

    def test_fabric_latency_shows_up_in_merged_percentiles(self):
        near = Federation.from_spec(
            cheap_federation("least-loaded", latency_ns=100.0)).run()
        far = Federation.from_spec(
            cheap_federation("least-loaded", latency_ns=200_000.0)).run()
        assert near.router.total_remote > 0
        assert far.run.service.p99_us > near.run.service.p99_us

    def test_runs_are_deterministic_including_trace(self):
        spec = cheap_federation(
            "locality-affinity", affinity_threshold=0.5,
            telemetry=TelemetrySpec(trace=True, metrics_interval_ns=5e4))
        first = Federation.from_spec(spec).run()
        second = Federation.from_spec(spec).run()
        assert json.dumps(first.row()) == json.dumps(second.row())
        assert first.member_rows() == second.member_rows()
        assert first.router_rows() == second.router_rows()
        assert first.run.telemetry.events == second.run.telemetry.events

    def test_trace_carries_one_track_group_per_member(self):
        spec = cheap_federation(
            "least-loaded", telemetry=TelemetrySpec(trace=True))
        result = Federation.from_spec(spec).run()
        groups = {event[1].split("/")[0]
                  for event in result.run.telemetry.events}
        assert {"alpha", "beta", "router"} <= groups

    def test_population_workload_runs_end_to_end(self):
        spec = cheap_federation(
            "locality-affinity",
            workload=WorkloadSpec(
                mode="open-loop", duration_ns=2e5, offered_gbps=6.0,
                population=TenantPopulationSpec(tenants=50_000,
                                                alpha=1.1, seed=7),
                diurnal=DiurnalSpec(period_ns=1e5, amplitude=0.4)))
        first = Federation.from_spec(spec).run()
        second = Federation.from_spec(spec).run()
        assert first.run.service.completed > 0
        # Tenants come from the big population, not range(4).
        tenants = {row["cluster"] for row in first.member_rows()}
        assert tenants == {"alpha", "beta"}
        assert json.dumps(first.row()) == json.dumps(second.row())

    def test_federation_runs_once(self):
        federation = Federation.from_spec(cheap_federation())
        federation.run()
        with pytest.raises(FederationError, match="already ran"):
            federation.run()

    def test_interval_beyond_horizon_names_the_remedy(self):
        spec = cheap_federation(
            telemetry=TelemetrySpec(metrics_interval_ns=5e5))
        with pytest.raises(TelemetryError,
                           match="metrics_interval_ns.*shorten the interval"):
            Federation.from_spec(spec).run()


# -- scripted dispatch workers -------------------------------------------------

TEST_KEY = b"dispatch-test-key"


class ScriptedWorker:
    """One-connection keyed worker with a scripted behavior."""

    def __init__(self, behavior):
        self.listener = Listener(("127.0.0.1", 0), authkey=TEST_KEY)
        self.address = self.listener.address
        self.thread = threading.Thread(
            target=self._serve, args=(behavior,), daemon=True)
        self.thread.start()

    def _serve(self, behavior) -> None:
        try:
            with self.listener, self.listener.accept() as conn:
                behavior(conn)
        except (OSError, DispatchError):
            pass


def good_worker(conn: Connection,
                start: threading.Event | None = None) -> None:
    """A correct worker; optionally holds its hello until ``start``."""
    if start is not None:
        assert start.wait(30.0)
    conn.send(("hello", PROTOCOL_VERSION))
    while True:
        message = receive(conn)
        if message[0] == "shutdown":
            return
        conn.send(("result", *execute_point(message[1])))


def crash_after_task(handed: threading.Event):
    """Greets, accepts exactly one task, then drops the connection."""
    def behavior(conn: Connection) -> None:
        conn.send(("hello", PROTOCOL_VERSION))
        receive(conn)  # the task we are about to lose
        handed.set()
    return behavior


def silent_after_task(handed: threading.Event, release: threading.Event):
    """Greets, accepts one task, then stops talking (no heartbeats)."""
    def behavior(conn: Connection) -> None:
        conn.send(("hello", PROTOCOL_VERSION))
        receive(conn)
        handed.set()
        release.wait(60.0)
    return behavior


def dispatch_points(count: int = 3):
    """A tiny expanded grid to feed pools directly."""
    spec = SweepSpec(
        cluster=ClusterSpec(fleet=CHEAP_FLEET),
        workload=WorkloadSpec(mode="open-loop", duration_ns=1e5,
                              offered_gbps=2.0, tenants=2),
        axes=(SweepAxis.over(
            "offered_gbps", "workload.offered_gbps",
            tuple(float(n + 1) for n in range(count))),),
        root_seed=13,
    )
    return spec, spec.expand()


def raw_connection() -> tuple[socket.socket, Connection]:
    """A :class:`Connection` whose peer writes hand-made bytes."""
    left, right = socket.socketpair()
    return left, Connection(right.detach())


def frame(payload: bytes) -> bytes:
    """``payload`` framed the way :class:`Connection` frames messages."""
    return struct.pack("!i", len(payload)) + payload


def start_worker() -> tuple[threading.Thread, tuple[str, int]]:
    """A real one-session worker on a thread, keyed with ``TEST_KEY``."""
    ports: SimpleQueue = SimpleQueue()
    thread = threading.Thread(target=serve_worker, kwargs=dict(
        authkey=TEST_KEY, max_sessions=1, ready=ports.put), daemon=True)
    thread.start()
    return thread, ("127.0.0.1", ports.get(timeout=30))


class TouchOnUnpickle:
    """A pickle that creates ``path`` when it is loaded."""

    def __init__(self, path) -> None:
        self.path = path

    def __reduce__(self):
        return self.path.touch, ()


class TestDispatchProtocol:
    def test_truncated_frame_is_a_named_error_not_eoferror(self):
        left, conn = raw_connection()
        try:
            left.sendall(b"\x00\x00")  # half of a length header
            left.close()
            with pytest.raises(DispatchError,
                               match="connection lost") as exc:
                receive(conn)
            assert not isinstance(exc.value, EOFError)
        finally:
            conn.close()

    def test_truncated_payload_is_a_dispatch_error(self):
        left, conn = raw_connection()
        try:
            left.sendall(struct.pack("!i", 100) + b"short")
            left.close()
            with pytest.raises(DispatchError,
                               match="connection lost") as exc:
                receive(conn)
            assert not isinstance(exc.value, EOFError)
        finally:
            conn.close()

    def test_malformed_payload_rejected(self):
        left, conn = raw_connection()
        try:
            left.sendall(frame(b"not a pickle"))
            with pytest.raises(DispatchError, match="malformed message"):
                receive(conn)
        finally:
            left.close()
            conn.close()

    def test_pool_validates_hosts_and_requeues(self):
        with pytest.raises(DispatchError, match="at least one host"):
            SocketWorkerPool([], authkey=TEST_KEY)
        with pytest.raises(DispatchError, match="max_requeues"):
            SocketWorkerPool(["h:1"], authkey=TEST_KEY, max_requeues=-1)
        with pytest.raises(DispatchError, match="bad worker address"):
            SocketWorkerPool(["no-port"], authkey=TEST_KEY)

    def test_version_mismatch_is_a_dispatch_error(self):
        def old_worker(conn: Connection) -> None:
            conn.send(("hello", PROTOCOL_VERSION + 1))
            release.wait(30.0)

        release = threading.Event()
        worker = ScriptedWorker(old_worker)
        _, points = dispatch_points(1)
        pool = SocketWorkerPool([worker.address], authkey=TEST_KEY,
                                max_requeues=0)
        outcomes = list(pool.imap(points))
        release.set()
        assert len(outcomes) == 1
        index, run, error = outcomes[0]
        # The mismatch kills the worker before any point is in flight,
        # so the point fails out through the stranded path.
        assert run is None and "every worker died" in error
        assert pool.dead_workers


class TestDispatchAuthentication:
    def test_wrong_key_is_rejected_and_the_worker_serves_on(self):
        thread, address = start_worker()
        with pytest.raises(AuthenticationError):
            Client(address, authkey=b"not the key")
        # The rejection did not use up the worker's one session.
        _, points = dispatch_points(1)
        pool = SocketWorkerPool([address], authkey=TEST_KEY)
        assert [error for _, _, error in pool.imap(points)] == [None]
        thread.join(30.0)
        assert not thread.is_alive()

    @pytest.mark.parametrize("sent", [b"", b"\x00\x00"],
                             ids=["silent", "half-header"])
    def test_stalled_handshake_is_dropped_and_the_worker_serves_on(
            self, monkeypatch, sent):
        monkeypatch.setattr(dispatch, "HANDSHAKE_TIMEOUT_S", 0.2)
        thread, address = start_worker()
        with socket.create_connection(address, timeout=30.0) as staller:
            # The worker has sent this peer its challenge and now waits
            # on an answer that never (fully) comes.
            assert staller.recv(4096)
            staller.sendall(sent)
            _, points = dispatch_points(1)
            pool = SocketWorkerPool([address], authkey=TEST_KEY)
            assert [error for _, _, error in pool.imap(points)] == [None]
            assert staller.recv(4096) == b""  # hung up on
        thread.join(30.0)
        assert not thread.is_alive()

    def test_unauthenticated_pickle_is_never_loaded(self, tmp_path):
        flag = tmp_path / "unpickled"
        payload = pickle.dumps(TouchOnUnpickle(flag))
        pickle.loads(payload)  # the payload is live: loading it acts
        assert flag.exists()
        flag.unlink()
        thread, address = start_worker()
        with socket.create_connection(address, timeout=30.0) as raw:
            raw.sendall(frame(payload))
            while raw.recv(4096):  # until the worker hangs up
                pass
        _, points = dispatch_points(1)
        pool = SocketWorkerPool([address], authkey=TEST_KEY)
        assert [error for _, _, error in pool.imap(points)] == [None]
        thread.join(30.0)
        assert not thread.is_alive()
        assert not flag.exists()


class TestDispatchLiveness:
    def test_worker_crash_mid_point_requeues_exactly_once(self):
        handed = threading.Event()
        crasher = ScriptedWorker(crash_after_task(handed))
        survivor = ScriptedWorker(
            lambda conn: good_worker(conn, start=handed))
        spec, points = dispatch_points(3)
        pool = SocketWorkerPool([crasher.address, survivor.address],
                                authkey=TEST_KEY)
        outcomes = sorted(pool.imap(points))
        assert [error for _, _, error in outcomes] == [None] * 3
        assert pool.requeues == 1
        assert pool.dead_workers == [
            f"{crasher.address[0]}:{crasher.address[1]}"]

    def test_heartbeat_timeout_marks_worker_dead(self):
        handed, release = threading.Event(), threading.Event()
        staller = ScriptedWorker(silent_after_task(handed, release))
        survivor = ScriptedWorker(
            lambda conn: good_worker(conn, start=handed))
        _, points = dispatch_points(2)
        pool = SocketWorkerPool([staller.address, survivor.address],
                                authkey=TEST_KEY, heartbeat_timeout_s=0.5)
        outcomes = sorted(pool.imap(points))
        release.set()
        assert [error for _, _, error in outcomes] == [None] * 2
        assert pool.requeues == 1
        assert pool.dead_workers == [
            f"{staller.address[0]}:{staller.address[1]}"]

    def test_requeue_budget_exhaustion_fails_the_point(self):
        handed = threading.Event()
        crasher = ScriptedWorker(crash_after_task(handed))
        _, points = dispatch_points(1)
        pool = SocketWorkerPool([crasher.address], authkey=TEST_KEY,
                                max_requeues=0)
        outcomes = list(pool.imap(points))
        assert len(outcomes) == 1
        index, run, error = outcomes[0]
        assert run is None
        assert "after 1 attempts" in error
        assert pool.requeues == 0

    def test_all_workers_dead_fails_out_instead_of_hanging(self):
        handed = threading.Event()
        crasher = ScriptedWorker(crash_after_task(handed))
        _, points = dispatch_points(3)
        pool = SocketWorkerPool([crasher.address], authkey=TEST_KEY,
                                max_requeues=1)
        outcomes = sorted(pool.imap(points))
        assert len(outcomes) == 3
        assert all(run is None for _, run, _ in outcomes)
        assert any("every worker died" in error
                   for _, _, error in outcomes)
        assert pool.requeues == 1

    def test_closing_the_stream_early_stops_workers_after_their_point(self):
        closing, seen = threading.Event(), []

        def recording_worker(conn: Connection) -> None:
            conn.send(("hello", PROTOCOL_VERSION))
            while True:
                message = receive(conn)
                seen.append(message[0])
                if message[0] == "shutdown":
                    return
                if len(seen) == 2:  # hold this point until the close
                    closing.wait(30.0)
                    time.sleep(0.2)
                conn.send(("result", *execute_point(message[1])))

        worker = ScriptedWorker(recording_worker)
        _, points = dispatch_points(4)
        outcomes = SocketWorkerPool([worker.address],
                                    authkey=TEST_KEY).imap(points)
        next(outcomes)
        closing.set()
        outcomes.close()
        worker.thread.join(30.0)
        assert not worker.thread.is_alive()
        # At most the point already in flight runs; the rest are dropped.
        assert seen in (["task", "shutdown"],
                        ["task", "task", "shutdown"])


class TestDistributedSweep:
    def test_distributed_needs_workers_or_hosts(self):
        spec, _ = dispatch_points(2)
        with pytest.raises(SweepError, match="workers"):
            SweepRunner(spec, distributed=True)

    def test_hosts_need_the_worker_key(self, monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        spec, _ = dispatch_points(2)
        with pytest.raises(DispatchError, match=KEY_ENV):
            SweepRunner(spec, hosts=["127.0.0.1:1"])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sockets_rows_byte_identical_to_inline(self, workers):
        spec, _ = dispatch_points(3)
        inline = SweepRunner(spec).run().rows()
        runner = SweepRunner(spec, workers=workers, distributed=True)
        assert json.dumps(runner.run().rows()) == json.dumps(inline)
        assert runner.dispatch_dead_workers == []

    def test_rows_identical_when_a_worker_dies_mid_run(self, monkeypatch):
        monkeypatch.setenv(KEY_ENV, TEST_KEY.decode())
        handed = threading.Event()
        crasher = ScriptedWorker(crash_after_task(handed))
        survivor = ScriptedWorker(
            lambda conn: good_worker(conn, start=handed))
        spec, _ = dispatch_points(4)
        inline = SweepRunner(spec).run().rows()
        runner = SweepRunner(
            spec, hosts=[crasher.address, survivor.address])
        distributed = runner.run().rows()
        assert json.dumps(distributed) == json.dumps(inline)
        assert runner.dispatch_requeues == 1
        assert len(runner.dispatch_dead_workers) == 1

    def test_spawn_local_workers_validates_count(self):
        with pytest.raises(DispatchError, match="at least one"):
            with spawn_local_workers(0):
                pass


class TestDispatchCli:
    def test_worker_refuses_to_start_without_a_key(self, monkeypatch,
                                                   capsys):
        monkeypatch.delenv(KEY_ENV, raising=False)
        assert cli_main(["worker", "--listen", "127.0.0.1:0",
                         "--max-sessions", "1"]) == 2
        assert KEY_ENV in capsys.readouterr().err

    def test_sweep_hosts_without_a_key_exits_two(self, monkeypatch,
                                                 capsys, tmp_path):
        monkeypatch.delenv(KEY_ENV, raising=False)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(dispatch_points(2)[0].to_json())
        assert cli_main(["sweep", "--spec", str(spec_path), "--quiet",
                         "--hosts", "127.0.0.1:1"]) == 2
        assert KEY_ENV in capsys.readouterr().err

    @pytest.mark.parametrize("workers, backend",
                             [(0, "inline"), (2, "workers")])
    def test_backend_label(self, workers, backend, capsys, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(dispatch_points(2)[0].to_json())
        assert cli_main(["sweep", "--spec", str(spec_path), "--quiet",
                         "--workers", str(workers)]) == 0
        assert f"backend {backend} ==" in capsys.readouterr().out

    def test_distributed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--example-spec", "--distributed"])
        assert exc.value.code == 2
        assert "--distributed" in capsys.readouterr().err
