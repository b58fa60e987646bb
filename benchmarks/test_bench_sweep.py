"""Sweep-runner overhead benchmarks: the runner vs bare points.

Tracks the cost of the orchestration layer itself — the same small
grid executed point-by-point through :func:`repro.sweep.run_point`
(no runner) and through :class:`SweepRunner` inline — so future
changes can see expansion/collection overhead per point.  The worker
dispatch tax is tracked by ``test_bench_federation.py``.  The
per-point simulations are deliberately tiny: the grid is the workload
here, not the fleet.
"""

import pytest

from repro.cluster import ClusterSpec, DeviceSpec, FleetSpec
from repro.sweep import (
    SweepAxis,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    run_point,
)

_POINTS = 8


def _spec() -> SweepSpec:
    return SweepSpec(
        cluster=ClusterSpec(
            fleet=FleetSpec(devices=(
                DeviceSpec("cpu", algorithm="snappy", threads=4),)),
        ),
        workload=WorkloadSpec(mode="open-loop", duration_ns=2e5,
                              offered_gbps=2.0, tenants=2),
        axes=(
            SweepAxis.over("offered_gbps", "workload.offered_gbps",
                           (1.0, 2.0)),
            SweepAxis.over("policy", "policy",
                           ("static", "round-robin", "shortest-queue",
                            "cost-model")),
        ),
        root_seed=5,
    )


@pytest.fixture(scope="module")
def warm_models():
    """Calibrate the one device up front; every run reuses the cache."""
    spec = _spec()
    SweepRunner(spec).warm_calibration(spec.expand())


def _run_serial():
    return SweepRunner(_spec(), workers=0).run()


def _run_bare():
    """The floor: the same points with no runner around them."""
    return [run_point(point) for point in _spec().expand()]


def test_bench_sweep_points_bare(benchmark, warm_models):
    """Per-point cost with no orchestration (the comparison floor)."""
    results = benchmark(_run_bare)
    assert len(results) == _POINTS
    benchmark.extra_info["points"] = _POINTS


def test_bench_sweep_serial(benchmark, warm_models):
    """SweepRunner inline: expansion + collection overhead included."""
    result = benchmark(_run_serial)
    assert len(result.rows()) == _POINTS
    benchmark.extra_info["points"] = _POINTS
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["per_point_ms"] = round(
            benchmark.stats.stats.mean * 1e3 / _POINTS, 3)

