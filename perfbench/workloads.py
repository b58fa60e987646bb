"""The benchmark's four workloads: fixed simulated inputs made from a seed.

Each workload splits its work the way a user meets it:

* ``prepare()`` is the cold set-up a user pays once per process: parse
  the spec, calibrate the device cost models (which runs the real
  codecs) and build the cluster or federation.  ``setup_s`` times it
  in fresh interpreters (``setup_probe.py``).
* ``execute()`` is one timed repetition: build a fresh session on the
  warm calibration cache and run the same simulated input.
  ``rep(outcome, wall_s)`` then checks its outputs and returns a
  :class:`Rep`; the caller times ``execute()`` alone.

"Op" is the workload's simulated client operation: an offload request
for ``serve-open``, ``federation-diurnal`` and ``sweep-dispatch``, a
GET or PUT for ``store-closed``.  Simulated figures (goodput,
latency, counts) are exact for a seed, so every repetition of one
invocation must produce the same digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import statistics
import time
from collections import Counter
from pathlib import Path

from repro.cluster import Cluster, StoreSpec, default_cluster_spec
from repro.cluster.spec import ClusterSpec, DeviceSpec, FleetSpec
from repro.federation import Federation, FederationSpec
from repro.sweep import SweepAxis, SweepRunner, SweepSpec, WorkloadSpec
from repro.workloads.population import realize_population

ROOT = Path(__file__).resolve().parent.parent

#: Simulated horizon of the single-run workloads.  40 ms keeps the
#: seed-to-seed spread of the simulated p50/p99 near 1%.
HORIZON_NS = 40e6


@dataclasses.dataclass
class Rep:
    """One repetition's outcome."""

    ops: int
    wall_s: float
    #: ``sim_goodput_gbps``, ``sim_p50_us``, ``sim_p99_us``.
    sim: dict
    digest: str
    #: Failed output checks; empty when the repetition is correct.
    problems: list
    #: Exact simulated counts the traced run turns into per-layer ratios.
    counts: dict


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _client_sim(row: dict) -> dict:
    return {"sim_goodput_gbps": row["goodput_gbps"],
            "sim_p50_us": row["p50_us"], "sim_p99_us": row["p99_us"]}


def _service_problems(service, label: str = "service") -> list:
    """offered = completed + shed + failed, with nothing left in flight.

    The service has no failure outcome of its own: a request that is
    neither completed nor shed when the run has drained is lost.
    """
    lost = service.offered - service.completed - service.shed
    if lost:
        return [f"{label}: offered {service.offered} != completed "
                f"{service.completed} + shed {service.shed} ({lost} lost)"]
    return []


def _service_counts(service) -> dict:
    return {
        "offered": service.offered,
        "spilled": service.spilled,
        "shed": service.shed,
        "batches": sum(row["batches"] for row in service.per_device),
    }


class ServeOpen:
    """``default_cluster_spec()`` driven open loop at 36 GB/s, 4 tenants.

    The spec, rate and tenant count of the ``BENCH_telemetry.json``
    reference scenario (which runs 1.5 ms at seed 5), over a 40 ms
    horizon so the run is in steady state.
    """

    name = "serve-open"
    LOAD_GBPS = 36.0
    TENANTS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = None

    def prepare(self) -> None:
        self.spec = default_cluster_spec()
        Cluster.from_spec(self.spec)

    def execute(self):
        cluster = Cluster.from_spec(self.spec)
        cluster.open_loop(offered_gbps=self.LOAD_GBPS,
                          duration_ns=HORIZON_NS, tenants=self.TENANTS,
                          seed=self.seed)
        return cluster.run()

    def rep(self, result, wall: float) -> Rep:
        row = result.clients[0]
        problems = _service_problems(result.service)
        if row["submitted"] != result.service.offered:
            problems.append(f"client submitted {row['submitted']} != "
                            f"service offered {result.service.offered}")
        return Rep(ops=row["submitted"], wall_s=wall, sim=_client_sim(row),
                   digest=_digest([result.row(), result.clients]),
                   problems=problems,
                   counts=_service_counts(result.service))


class StoreClosed:
    """Closed-loop 70/30 GET/PUT over a scrambled-Zipf block space.

    8 connections with 5 us think time against the default store:
    8192 logical blocks over a 512-block cache, so the working set is
    16x the cache.
    """

    name = "store-closed"
    READ_FRACTION = 0.7
    BLOCKS = 8192

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = None

    def prepare(self) -> None:
        self.spec = dataclasses.replace(
            default_cluster_spec(store=True),
            store=StoreSpec(client_window=8, client_think_ns=5000.0))
        Cluster.from_spec(self.spec)

    def execute(self):
        cluster = Cluster.from_spec(self.spec)
        # offered_gbps only paces open-loop stores; the connection
        # window sets the rate here.
        client = cluster.store_client(
            offered_gbps=1.0, duration_ns=HORIZON_NS,
            read_fraction=self.READ_FRACTION, blocks=self.BLOCKS,
            seed=self.seed)
        return cluster.run(), client

    def rep(self, outcome, wall: float) -> Rep:
        result, client = outcome
        store = result.store
        ops = client.reads + client.writes
        problems = _service_problems(result.service)
        if ops != client.submitted or ops != store.reads + store.writes:
            problems.append(
                f"GET+PUT submitted {client.reads}+{client.writes} != "
                f"store reads+writes {store.reads}+{store.writes}")
        if client.completed + client.failed != client.submitted:
            problems.append(
                f"client completed {client.completed} + failed "
                f"{client.failed} != submitted {client.submitted}")
        counts = _service_counts(result.service)
        counts.update(reads=store.reads, writes=store.writes,
                      coalesced=store.coalesced_reads,
                      hit_rate=store.hit_rate)
        return Rep(ops=ops, wall_s=wall, sim=_client_sim(result.clients[0]),
                   digest=_digest([result.row(), result.clients]),
                   problems=problems, counts=counts)


class FederationDiurnal:
    """``examples/federation.json`` as checked in, stretched to 40 ms.

    Three clusters behind a locality-affinity router, a 100k-tenant
    Pareto population with diurnal modulation, trace plus 50 us
    metrics sampling.  The seed replaces the spec's ``root_seed``.
    """

    name = "federation-diurnal"
    SPEC_PATH = ROOT / "examples" / "federation.json"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = None
        self.realize_s = 0.0

    def prepare(self) -> None:
        base = FederationSpec.from_json(
            self.SPEC_PATH.read_text(encoding="utf-8"))
        self.spec = dataclasses.replace(
            base, root_seed=self.seed,
            workload=dataclasses.replace(base.workload,
                                         duration_ns=HORIZON_NS))
        start = time.perf_counter()
        realize_population(self.spec.workload.population)
        self.realize_s = time.perf_counter() - start
        Federation.from_spec(self.spec)

    def execute(self):
        return Federation.from_spec(self.spec).run()

    def rep(self, result, wall: float) -> Rep:
        merged = result.run.service
        router = result.router
        row = result.run.clients[0]
        telemetry = result.run.telemetry
        problems = _service_problems(merged, "merged service")
        if router.total_routed != merged.offered:
            problems.append(f"router routed {router.total_routed} != "
                            f"merged offered {merged.offered}")
        if row["submitted"] != router.total_routed:
            problems.append(f"client submitted {row['submitted']} != "
                            f"router routed {router.total_routed}")
        counts = _service_counts(merged)
        counts.update(remote=router.total_remote,
                      spans=telemetry.recorded, dropped=telemetry.dropped)
        digest = _digest([result.run.row(), result.run.clients,
                          router.rows(),
                          [(name, report.row())
                           for name, report in result.members],
                          telemetry.recorded, telemetry.dropped])
        return Rep(ops=row["submitted"], wall_s=wall, sim=_client_sim(row),
                   digest=digest, problems=problems, counts=counts)


class SweepDispatch:
    """28 short open-loop points on a two-device fleet over sockets.

    Each point runs 3 ms simulated with its own load, policy and seed
    offset, so points are independent draws.  Goodput is summed over
    the points and the percentiles are averaged: the worst point's p99
    moved by 13-20% from seed to seed, the mean by under 2%.  Loads
    stop at 10 GB/s, below where round-robin and static pinning start
    to shed.  A repetition is one distributed sweep over local socket
    workers; its rows must be byte-identical to the inline rows.
    """

    name = "sweep-dispatch"
    LOADS = (1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0)
    POLICIES = ("round-robin", "shortest-queue", "cost-model", "static")
    POINT_NS = 3e6
    WORKERS = min(2, os.cpu_count() or 1)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = None
        self.inline_rows = None

    def prepare(self) -> None:
        grid = [(load, policy) for policy in self.POLICIES
                for load in self.LOADS]
        rows = [(load, policy, offset)
                for offset, (load, policy) in enumerate(grid)]
        self.spec = SweepSpec(
            cluster=ClusterSpec(fleet=FleetSpec(devices=(
                DeviceSpec("qat8970"), DeviceSpec("dpzip")))),
            workload=WorkloadSpec(mode="open-loop",
                                  duration_ns=self.POINT_NS, tenants=4),
            axes=(SweepAxis.zipped(
                "case", ("workload.offered_gbps", "policy",
                          "workload.seed_offset"), rows),),
            root_seed=self.seed,
        )
        SweepRunner(self.spec).warm_calibration(self.spec.expand())

    def execute_inline(self, progress=None):
        """One inline sweep, the reference the distributed rows must match."""
        return SweepRunner(self.spec, progress=progress).run(), None

    def execute(self):
        runner = SweepRunner(self.spec, workers=self.WORKERS,
                             distributed=True)
        return runner.run(), runner

    def reference(self) -> None:
        """Record the inline rows the distributed runs must reproduce."""
        result, _ = self.execute_inline()
        self.inline_rows = json.dumps(result.rows())

    def rep(self, outcome, wall: float) -> Rep:
        """Check one sweep; ``outcome`` is from either execute method."""
        result, runner = outcome
        rows = result.rows()
        runs = result.results
        problems = [f"point {failure.index} failed: {failure.error}"
                    for failure in result.failures]
        for index, run in enumerate(runs):
            if run is not None:
                problems += _service_problems(run.service,
                                              f"point {index}")
        if runner is not None and json.dumps(rows) != self.inline_rows:
            problems.append("distributed rows differ from inline rows")
        runs = [run for run in runs if run is not None]
        clients = [run.clients[0] for run in runs]
        sim = {
            "sim_goodput_gbps": sum(row["goodput_gbps"] for row in clients),
            "sim_p50_us": statistics.fmean(row["p50_us"] for row in clients),
            "sim_p99_us": statistics.fmean(row["p99_us"] for row in clients),
        }
        counts = Counter()
        for run in runs:
            counts.update(_service_counts(run.service))
        counts.update(
            result_bytes=sum(len(pickle.dumps(run)) for run in runs),
            requeues=runner.dispatch_requeues if runner else 0,
            points=len(runs))
        return Rep(ops=counts["offered"], wall_s=wall, sim=sim,
                   digest=_digest(rows), problems=problems, counts=counts)


WORKLOADS = {cls.name: cls for cls in
             (ServeOpen, StoreClosed, FederationDiurnal, SweepDispatch)}
