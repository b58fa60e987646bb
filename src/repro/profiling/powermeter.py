"""BMC-style net-power measurement (paper §5.4 methodology).

The paper samples server power out-of-band, subtracts idle power, and
divides throughput by the net wattage.  :class:`PowerMeter` wraps that
arithmetic around the component power models in :mod:`repro.hw.power`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.power import (
    NetPowerBreakdown,
    SERVER_IDLE_W,
    device_active_w,
    efficiency_mb_per_joule,
    efficiency_ops_per_joule,
    net_power_w,
)


@dataclass
class PowerSample:
    """One workload's power and efficiency summary."""

    config: str
    net_w: float
    runtime_w: float
    throughput_gbps: float = 0.0
    ops_per_second: float = 0.0

    @property
    def mb_per_joule(self) -> float:
        return efficiency_mb_per_joule(self.throughput_gbps, self.net_w)

    @property
    def ops_per_joule(self) -> float:
        return efficiency_ops_per_joule(self.ops_per_second, self.net_w)


class PowerMeter:
    """Computes net power for named device configurations."""

    def __init__(self, idle_w: float = SERVER_IDLE_W) -> None:
        self.idle_w = idle_w

    def breakdown(self, config: str, device_count: int = 1,
                  host_threads: int = 8,
                  cpu_utilization: float = 1.0) -> NetPowerBreakdown:
        return net_power_w(config, device_count, host_threads,
                           cpu_utilization)

    def sample_throughput(self, config: str, throughput_gbps: float,
                          device_count: int = 1, host_threads: int = 8,
                          cpu_utilization: float = 1.0) -> PowerSample:
        power = self.breakdown(config, device_count, host_threads,
                               cpu_utilization)
        return PowerSample(
            config=config,
            net_w=power.total_w,
            runtime_w=self.idle_w + power.total_w,
            throughput_gbps=throughput_gbps,
        )

    def sample_ops(self, config: str, ops_per_second: float,
                   device_count: int = 1, host_threads: int = 8,
                   cpu_utilization: float = 1.0) -> PowerSample:
        power = self.breakdown(config, device_count, host_threads,
                               cpu_utilization)
        return PowerSample(
            config=config,
            net_w=power.total_w,
            runtime_w=self.idle_w + power.total_w,
            ops_per_second=ops_per_second,
        )

    # -- live-fleet draw (telemetry time series) -------------------------------

    def device_draw_w(self, device) -> float:
        """Instantaneous active draw of one live fleet member.

        Active wattage comes from the :mod:`repro.hw.power` catalog
        entry of the member's device kind, scaled by the device's
        current fill fraction (an idle engine draws ~nothing above
        server idle) and its derate.  A kind the catalog has no entry
        for draws zero rather than failing a metrics tick mid-run.
        """
        if not device.is_online:
            return 0.0
        try:
            active_w = device_active_w(device.device)
        except ConfigurationError:
            return 0.0
        fill = min(device.inflight / device.queue_limit, 1.0) \
            if device.queue_limit else 0.0
        return active_w * fill * device.speed_factor

    def fleet_draw_w(self, devices) -> float:
        """Summed instantaneous draw across ``devices``."""
        return sum(self.device_draw_w(device) for device in devices)
