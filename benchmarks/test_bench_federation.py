"""Federation overhead benchmarks: routing tax and dispatch tax.

Two questions, tracked over time:

* what does the federated layer itself cost — the same cheap fleet
  served as one plain cluster vs. two federated members behind the
  global router on one shared simulator;
* what does socket dispatch cost per sweep point — the same tiny grid
  through the inline runner vs. fanned out over two local socket
  workers (connection setup and handshake, message pickling,
  heartbeats included).

The per-run simulations are deliberately tiny: the orchestration
layers are the workload here, not the fleet.
"""

import json

import pytest

from repro.cluster import Cluster, ClusterSpec, DeviceSpec, FleetSpec
from repro.federation import (
    Federation,
    FederationMemberSpec,
    FederationSpec,
    LinkSpec,
)
from repro.sweep import SweepAxis, SweepRunner, SweepSpec, WorkloadSpec

_POINTS = 6
_FLEET = FleetSpec(
    devices=(DeviceSpec("cpu", algorithm="snappy", threads=4),),
)
_WORKLOAD = WorkloadSpec(mode="open-loop", duration_ns=2e5,
                         offered_gbps=4.0, tenants=4)


def _federation_spec() -> FederationSpec:
    return FederationSpec(
        members=tuple(
            FederationMemberSpec(
                name=name,
                cluster=ClusterSpec(fleet=_FLEET),
                link=LinkSpec(latency_ns=1_000.0, bandwidth_gbps=12.5))
            for name in ("alpha", "beta")),
        routing="locality-affinity",
        affinity_threshold=0.6,
        workload=_WORKLOAD,
        root_seed=5,
    )


def _sweep_spec() -> SweepSpec:
    return SweepSpec(
        cluster=ClusterSpec(fleet=_FLEET),
        workload=WorkloadSpec(mode="open-loop", duration_ns=1e5,
                              offered_gbps=2.0, tenants=2),
        axes=(SweepAxis.over(
            "offered_gbps", "workload.offered_gbps",
            tuple(float(n + 1) for n in range(_POINTS))),),
        root_seed=13,
    )


@pytest.fixture(scope="module")
def warm_models():
    """Calibrate the one device up front; every run reuses the cache."""
    spec = _sweep_spec()
    SweepRunner(spec).warm_calibration(spec.expand())


def test_bench_single_cluster_baseline(benchmark, warm_models):
    """The floor: the same fleet/workload as one plain cluster."""
    def run():
        cluster = Cluster.from_spec(ClusterSpec(fleet=_FLEET))
        cluster.open_loop(offered_gbps=_WORKLOAD.offered_gbps,
                          duration_ns=_WORKLOAD.duration_ns,
                          tenants=_WORKLOAD.tenants, seed=5)
        return cluster.run()

    result = benchmark(run)
    assert result.service.completed > 0


def test_bench_federated_two_members(benchmark, warm_models):
    """Two members + global router on one shared simulator."""
    result = benchmark(lambda: Federation.from_spec(
        _federation_spec()).run())
    assert result.run.service.completed > 0
    benchmark.extra_info["remote_fraction"] = round(
        result.router.remote_fraction, 4)


def test_bench_sweep_inline(benchmark, warm_models):
    """Dispatch comparison floor: the grid through the inline runner."""
    result = benchmark(lambda: SweepRunner(_sweep_spec()).run())
    assert len(result.rows()) == _POINTS
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["per_point_ms"] = round(
            benchmark.stats.stats.mean * 1e3 / _POINTS, 3)


def test_bench_sweep_socket_dispatch(benchmark, warm_models):
    """Same grid over two local socket workers (the dispatch tax:
    fork + connect + handshake + message pickling + heartbeats)."""
    result = benchmark(lambda: SweepRunner(
        _sweep_spec(), workers=2).run())
    assert len(result.rows()) == _POINTS
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["per_point_ms"] = round(
            benchmark.stats.stats.mean * 1e3 / _POINTS, 3)


def test_bench_socket_rows_match_inline(warm_models, show_tables):
    """Dispatch must buy wall-clock only — never different rows."""
    inline = SweepRunner(_sweep_spec()).run()
    sockets = SweepRunner(_sweep_spec(), workers=2).run()
    assert json.dumps(inline.rows()) == json.dumps(sockets.rows())
    if show_tables:
        print("\n" + inline.table())
