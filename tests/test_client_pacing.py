"""Exact-time pacing of the closed-loop clients.

Both windowed protocols (:class:`ClosedLoopClient` over the offload
service and :class:`StoreClient` over the block store) share one
pacing rule: after a completion a connection thinks ``think_ns``, after
a drop it backs off ``retry_backoff_ns``, and with no think time it
resubmits at the completion instant but only after the completion
chain (the scheduler's accounting, the caller hook, then ``pump()``)
has returned.  A connection stops at the first pacing step at or past
``duration_ns``.

The service here is scripted, so every completion and drop lands at a
known instant and the tests can assert exact submission times.
"""

from pathlib import Path

from service_stubs import StubDevice, flat_model
from repro.cluster import Cluster
from repro.cluster.clients import ClosedLoopClient, StoreClient
from repro.service import FleetDevice, OffloadService
from repro.sim.engine import Simulator
from repro.store import BlockCache, CompressedBlockStore
from repro.workloads import MixedStream

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class ScriptedService:
    """Stands in for :class:`OffloadService`: each submission's fate
    comes from ``script`` and every step is logged as ``(what, time)``.

    ``script(n)`` for the ``n``-th submission returns ``("shed", 0)``
    (drop inside ``submit``), ``("drop", delay)`` or
    ``("complete", delay)``.  A completion runs the caller's hook and
    then logs ``pump``, the order the scheduler's completion chain
    uses.
    """

    def __init__(self, script, sim=None):
        self.sim = sim if sim is not None else Simulator()
        self.script = script
        self.log = []

    def submit(self, request, on_complete=None, on_drop=None):
        sim = self.sim
        request.arrival_ns = sim.now
        action, delay = self.script(
            sum(1 for entry in self.log if entry[0] == "submit"))
        self.log.append(("submit", sim.now))
        if action == "shed":
            self.log.append(("drop", sim.now))
            on_drop(request)
            return "shed"

        def finish():
            if action == "drop":
                self.log.append(("drop", sim.now))
                on_drop(request)
                return
            self.log.append(("complete", sim.now))
            if on_complete is not None:
                on_complete(request, None, None)
            self.log.append(("pump", sim.now))

        sim.call_later(delay, finish)
        return "admitted"


def always(action, delay=0.0):
    return lambda n: (action, delay)


def times(log, what):
    return [when for kind, when in log if kind == what]


def run_client(client):
    finished = []
    client.start(on_done=lambda c: finished.append(c.sim.now))
    client.sim.run()
    return finished


def closed_client(service, **kwargs):
    kwargs.setdefault("window", 1)
    kwargs.setdefault("duration_ns", 1000.0)
    return ClosedLoopClient(service, request_sizes=(1000,), seed=3,
                            **kwargs)


class TestClosedLoopPacing:
    def test_zero_think_resubmits_after_pump_at_the_same_instant(self):
        service = ScriptedService(always("complete", 250.0))
        client = closed_client(service)
        finished = run_client(client)
        cycle = [("complete", 0.0), ("pump", 0.0), ("submit", 0.0)]
        expected = [("submit", 0.0)]
        for when in (250.0, 500.0, 750.0):
            expected += [(kind, when) for kind, _ in cycle]
        expected += [("complete", 1000.0), ("pump", 1000.0)]
        assert service.log == expected
        # The completion at 1000 ns is at duration_ns: no resubmit.
        assert finished == [1000.0]
        assert client.completed == client.submitted == 4
        assert client.inflight == 0

    def test_zero_think_resubmits_after_real_scheduler_pump(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(name="dev0"),
                             flat_model(engine_per_byte_ns=0.25),
                             queue_limit=4, batch_size=1)
        service = OffloadService(sim, [device], "cost-model")
        cluster = Cluster(sim, service)
        log = []
        scheduler = service.scheduler
        pump = scheduler.pump
        submit = service.submit

        def logged_pump():
            log.append(("pump", sim.now))
            pump()

        def logged_submit(request, on_complete=None, on_drop=None):
            log.append(("submit", sim.now))

            def completed(req, dev, cost):
                log.append(("complete", sim.now))
                on_complete(req, dev, cost)
            return submit(request, on_complete=completed, on_drop=on_drop)

        scheduler.pump = logged_pump
        service.submit = logged_submit
        client = cluster.closed_loop(window=1, duration_ns=2000.0,
                                     request_sizes=(1000,), seed=3)
        cluster.run()
        assert client.submitted > 2
        submits = [index for index, entry in enumerate(log)
                   if entry[0] == "submit"]
        for index in submits[1:]:
            when = log[index][1]
            before = log[:index]
            last_complete = max(i for i, entry in enumerate(before)
                                if entry[0] == "complete")
            # complete -> pump -> resubmit, all at one instant.
            assert log[last_complete][1] == when
            assert ("pump", when) in before[last_complete + 1:]

    def test_think_time_sets_the_resubmit_time(self):
        service = ScriptedService(always("complete", 250.0))
        client = closed_client(service, think_ns=100.0)
        finished = run_client(client)
        assert times(service.log, "submit") == [0.0, 350.0, 700.0]
        assert times(service.log, "complete") == [250.0, 600.0, 950.0]
        # The think timer after the 950 ns completion fires past the
        # window, and that pacing step ends the connection.
        assert finished == [1050.0]

    def test_drop_backs_off_before_resubmitting(self):
        script = {0: ("shed", 0.0), 1: ("drop", 100.0)}
        service = ScriptedService(
            lambda n: script.get(n, ("complete", 250.0)))
        client = closed_client(service, think_ns=50.0,
                               retry_backoff_ns=400.0, duration_ns=2000.0)
        finished = run_client(client)
        assert times(service.log, "submit") == [
            0.0, 400.0, 900.0, 1200.0, 1500.0, 1800.0]
        assert times(service.log, "drop") == [0.0, 500.0]
        assert finished == [2100.0]
        assert (client.failed, client.completed) == (2, 4)
        assert client.latency.count == 4

    def test_window_closes_when_every_connection_stops(self):
        service = ScriptedService(
            lambda n: ("complete", 300.0 if n % 2 else 200.0))
        client = closed_client(service, window=2)
        finished = run_client(client)
        submits = times(service.log, "submit")
        assert submits[:2] == [0.0, 0.0]
        assert all(when < 1000.0 for when in submits)
        assert finished == [max(times(service.log, "complete"))]
        assert finished[0] >= 1000.0
        assert client.peak_inflight == 2
        assert client.inflight == 0
        assert client.completed == client.submitted


def store_client(script, *, cache_blocks, read_fraction, window,
                 think_ns=0.0, duration_ns=700.0, blocks=1, **kwargs):
    service = ScriptedService(script)
    store = CompressedBlockStore(
        service.sim, service, BlockCache(cache_blocks), block_bytes=1000,
        hit_overhead_ns=100.0, hit_per_byte_ns=0.0,
        media_overhead_ns=50.0, media_per_byte_ns=0.0)
    stream = MixedStream(offered_gbps=1.0, duration_ns=duration_ns,
                         read_fraction=read_fraction, blocks=blocks,
                         block_bytes=1000, seed=9)
    client = StoreClient(store, stream, window=window, think_ns=think_ns,
                         **kwargs)
    log = service.log
    get = store.get

    def logged_get(block, tenant, on_done=None):
        def done(outcome):
            log.append((f"get-{outcome}", store.sim.now))
            if on_done is not None:
                on_done(outcome)
        outcome = get(block, tenant, on_done=done)
        log.append((f"get-{outcome}", store.sim.now))
        return outcome

    store.get = logged_get
    return client, service


class TestStoreClientPacing:
    def test_coalesced_waiters_complete_when_the_decompress_lands(self):
        # No cache and one block: each wave is one miss plus two
        # readers coalesced onto its decompress.
        client, service = store_client(
            always("complete", 250.0), cache_blocks=0, read_fraction=1.0,
            window=3)
        finished = run_client(client)
        log = service.log
        wave = ["get-miss", "get-coalesced", "get-coalesced"]
        landings = times(log, "complete")
        assert landings == [300.0, 600.0, 900.0]
        # Media fetch (50 ns) precedes each decompress submission.
        assert times(log, "submit") == [50.0, 350.0, 650.0]
        for start, landing in zip([0.0] + landings, landings):
            issued = [kind for kind, when in log
                      if when == start and kind in wave]
            assert issued == wave
            assert times(log, "get-completed").count(landing) == 3
        assert finished == [900.0]
        assert client.completed == client.submitted == 9
        assert client.store.metrics.coalesced_reads == 6

    def test_hits_complete_after_the_copy_and_think_time(self):
        client, service = store_client(
            always("complete", 250.0), cache_blocks=8, read_fraction=1.0,
            window=1, think_ns=20.0)
        finished = run_client(client)
        log = service.log
        # Miss at 0 (done at 300), then hits taking 100 ns, each issued
        # 20 ns after the last completion.
        assert [kind for kind, _ in log if kind.startswith("get-")][:4] \
            == ["get-miss", "get-completed", "get-hit", "get-completed"]
        assert times(log, "get-hit") == [320.0, 440.0, 560.0, 680.0]
        assert times(log, "get-completed") == [
            300.0, 420.0, 540.0, 660.0, 780.0]
        assert finished == [800.0]

    def test_dropped_put_backs_off(self):
        script = {0: ("shed", 0.0), 2: ("drop", 100.0)}
        client, service = store_client(
            lambda n: script.get(n, ("complete", 250.0)), cache_blocks=8,
            read_fraction=0.0, window=1, duration_ns=1500.0,
            retry_backoff_ns=400.0)
        finished = run_client(client)
        log = service.log
        assert times(log, "submit") == [0.0, 400.0, 650.0, 1150.0, 1400.0]
        assert times(log, "drop") == [0.0, 750.0]
        assert finished == [1650.0]
        assert (client.failed, client.completed) == (2, 3)
        assert client.store.metrics.failed_writes == 2

    def test_open_loop_store_client_stops_at_duration(self):
        client, service = store_client(
            always("complete", 250.0), cache_blocks=8, read_fraction=0.5,
            window=None, duration_ns=2e4, blocks=16)
        finished = run_client(client)
        assert client.submitted > 0
        assert client.reads + client.writes == client.submitted
        assert all(when < 2e4 for when in times(service.log, "submit"))
        assert len(finished) == 1 and finished[0] >= 2e4


class TestNoProcessesOnTheRequestPath:
    def test_store_and_clients_spawn_no_processes(self):
        sources = sorted((SRC / "store").glob("*.py"))
        sources.append(SRC / "cluster" / "clients.py")
        for path in sources:
            assert "sim.spawn" not in path.read_text(), path.name
