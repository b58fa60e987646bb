"""Offload-service scheduler microbenchmarks.

Tracks the wall-clock cost of the DES service loop itself — simulated
requests routed per second at a fixed offered load — so future PRs can
see scheduler/dispatch overhead regressions, plus the acceptance check
that cost-model dispatch sustains at least the best placement-oblivious
policy's throughput at equal offered load.
"""

from repro.cluster import Cluster, default_cluster_spec
from repro.profiling import format_table
from repro.service import OpenLoopStream

#: Overload point for the mixed fleet (its ASIC+CPU capacity is lower),
#: so policy quality shows up as completed throughput, not just latency.
_LOAD_GBPS = 48.0
_DURATION_NS = 1.5e6
_SEED = 5


def _stream():
    return OpenLoopStream(offered_gbps=_LOAD_GBPS, duration_ns=_DURATION_NS,
                          tenants=4, seed=_SEED)


def _run(policy):
    """One run on the calibrated default fleet (no spill, no admission);
    calibration is cached process-wide, so only the first run pays it."""
    spec = default_cluster_spec(policy, spill=False)
    cluster = Cluster.from_spec(spec.with_overrides({"admission": None}))
    cluster.open_loop(_stream())
    return cluster.run().service


def test_bench_service_loop_rate(benchmark):
    """Requests/sec the DES loop sustains under cost-model dispatch."""
    report = benchmark(_run, "cost-model")
    assert report.completed > 0
    benchmark.extra_info["simulated_requests"] = report.offered
    benchmark.extra_info["completed_gbps"] = round(report.completed_gbps, 2)


def test_bench_policy_throughput(show_tables):
    """Cost-model >= best static policy at equal offered load."""
    reports = {
        policy: _run(policy)
        for policy in ("static", "round-robin", "shortest-queue",
                       "cost-model")
    }
    if show_tables:
        print("\n" + format_table([r.row() for r in reports.values()],
                                  floatfmt=".2f"))
    best_static = max(reports["static"].completed_gbps,
                      reports["round-robin"].completed_gbps)
    assert reports["cost-model"].completed_gbps >= best_static
