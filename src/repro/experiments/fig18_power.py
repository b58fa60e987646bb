"""Figure 18: power efficiency (MB/J) and CPU utilization.

Part (a): microbenchmark power efficiency per device — DPZip leads at
~170 MB/J (compress) vs CPU Deflate's ~42 MB/J, with multi-device
DP-CSD scaling past 288 MB/J; QAT's busy-wait polling drags it down to
CPU-class system efficiency (Finding 12/13).

Part (b): Btrfs-level efficiency plus host CPU utilization — DPZip
under 3% CPU, software/QAT paths above 14%.

Part (c): fleet power draw as a *time series* — a telemetry-enabled
cluster run samples instantaneous draw through the metrics registry
(``power_w`` gauge, :meth:`repro.profiling.powermeter.PowerMeter.
fleet_draw_w`), replacing the point estimates above with the load-
following trajectory a power-capping control loop would regulate
against.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, register
from repro.experiments.fig16_btrfs import run as run_fig16
from repro.hw.power import net_power_w
from repro.profiling.powermeter import PowerMeter

#: Device-level throughput at 4 KB (GB/s) from Figure 8's calibrated
#: models: (compress, decompress).
_MICRO_THROUGHPUT = {
    "cpu": (4.9, 13.6),
    "qat8970": (5.1, 7.6),
    "qat4xxx": (4.3, 7.0),
    "dpcsd": (5.6, 9.4),
}
#: Multi-device DP-CSD aggregate (3 drives, paper §5.2.2).
_MULTI_DPCSD = (16.3, 20.9)


@register("fig18")
def run(quick: bool = True) -> ExperimentResult:
    meter = PowerMeter()
    result = ExperimentResult(
        experiment_id="fig18",
        title="Power efficiency (MB/J) and CPU utilization",
    )
    # Host submission/polling threads per configuration and direction
    # (reads complete faster, so read loops poll with more threads).
    host_threads = {
        "cpu": (0, 0),
        "qat8970": (6, 10),
        "qat4xxx": (8, 13),
        "dpcsd": (19, 36),
    }
    for config, (comp, decomp) in _MICRO_THROUGHPUT.items():
        for op, gbps, threads in (
            ("compress", comp, host_threads[config][0]),
            ("decompress", decomp, host_threads[config][1]),
        ):
            sample = meter.sample_throughput(
                config, gbps, host_threads=threads,
                cpu_utilization=0.89,
            )
            result.rows.append({
                "part": "a-micro",
                "config": config,
                "op": op,
                "mb_per_joule": sample.mb_per_joule,
                "net_w": sample.net_w,
            })
    for op, gbps, threads in (("compress", _MULTI_DPCSD[0], 26),
                              ("decompress", _MULTI_DPCSD[1], 24)):
        sample = meter.sample_throughput("dpcsd", gbps, device_count=3,
                                         host_threads=threads)
        result.rows.append({
            "part": "a-micro",
            "config": "dpcsd-x3",
            "op": op,
            "mb_per_joule": sample.mb_per_joule,
            "net_w": sample.net_w,
        })

    # Part (b): Btrfs system-level efficiency and CPU utilization.
    fig16 = run_fig16(quick)
    cpu_util = {"off": 0.02, "cpu-deflate": 0.52, "qat8970": 0.16,
                "qat4xxx": 0.15, "dpcsd": 0.025, "csd2000": 0.06}
    power_key = {"off": "ssd", "cpu-deflate": "cpu", "qat8970": "qat8970",
                 "qat4xxx": "qat4xxx", "dpcsd": "dpcsd",
                 "csd2000": "csd2000"}
    # Buffered IO keeps the memory subsystem busy; the BMC sees that as
    # net power proportional to the write stream (W per GB/s moved).
    memory_w_per_gbps = 11.0
    for row in fig16.rows:
        config = row["config"]
        key = power_key[config]
        util = cpu_util[config]
        if key == "cpu":
            power = net_power_w("cpu", cpu_utilization=util)
        else:
            power = net_power_w(key, host_threads=10)
        write_gbps = row["write_gbps"]
        net = power.total_w + write_gbps * memory_w_per_gbps
        result.rows.append({
            "part": "b-btrfs",
            "config": config,
            "op": "write",
            "mb_per_joule": write_gbps * 1000.0 / net,
            "net_w": net,
            "cpu_utilization": util,
        })

    # Part (c): sampled fleet draw over one telemetry-enabled run.
    for row in _power_timeline(quick):
        result.rows.append(row)
    return result


def _power_timeline(quick: bool) -> list[dict]:
    """Fleet ``power_w`` time series from a sampled cluster run."""
    import dataclasses

    from repro.cluster import Cluster, TelemetrySpec, default_cluster_spec

    duration_ns = 1.0e6 if quick else 8.0e6
    interval_ns = duration_ns / 10.0
    spec = dataclasses.replace(
        default_cluster_spec(),
        telemetry=TelemetrySpec(metrics_interval_ns=interval_ns))
    cluster = Cluster.from_spec(spec)
    cluster.open_loop(offered_gbps=36.0, duration_ns=duration_ns,
                      tenants=4, seed=18)
    result = cluster.run()
    return [
        {
            "part": "c-timeline",
            "config": "mixed-fleet",
            "op": "compress",
            "t_ms": row["t_ms"],
            "power_w": row["power_w"],
            "utilization": row["utilization"],
        }
        for row in result.metrics_rows()
    ]
