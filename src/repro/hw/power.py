"""Power and energy models (paper §5.4, Figures 18/19).

The paper measures *net* system power — BMC runtime power minus idle —
and reports throughput / net-power as MB/J.  The model composes:

* device active/idle power (DPZip engine: 2.5 W, the paper's headline
  50x module-level gap against a 132 W CPU);
* host-side costs: submission threads, and the QAT driver's busy-wait
  polling (the mechanism that drags QAT's *system* efficiency down to
  software levels, Finding 13);
* per-configuration net power used by the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.engine import CdpuDevice


@dataclass
class DevicePower:
    """Active/idle wattage of one compression device."""

    active_w: float
    idle_w: float

    def net_w(self, utilization: float = 1.0) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization {utilization} not in [0,1]")
        return (self.active_w - self.idle_w) * utilization


#: Device power catalog (engineering estimates consistent with the
#: paper's net-power-derived efficiency numbers).
DEVICE_POWER: dict[str, DevicePower] = {
    "dpzip-engine": DevicePower(active_w=2.5, idle_w=0.1),
    "dpcsd": DevicePower(active_w=14.0, idle_w=7.0),
    "csd2000": DevicePower(active_w=16.0, idle_w=8.0),
    "qat8970": DevicePower(active_w=35.0, idle_w=12.0),
    "qat4xxx": DevicePower(active_w=15.0, idle_w=5.0),
    "ssd": DevicePower(active_w=12.0, idle_w=6.0),
}

#: Full-socket software compression package power (paper: "132W for a
#: CPU" while the DPZip engine draws 2.5 W).
CPU_PACKAGE_ACTIVE_W = 132.0

#: Net host power per actively-spinning submission/polling thread.
HOST_THREAD_W = 1.35

#: Extra host power for QAT's busy-wait polling loops (Finding 13).
QAT_POLLING_W_PER_THREAD = 2.1

#: Server idle floor (subtracted out by the BMC methodology).
SERVER_IDLE_W = 320.0


@dataclass
class NetPowerBreakdown:
    """Net (above idle) system power for one workload configuration."""

    device_w: float = 0.0
    host_threads_w: float = 0.0
    cpu_compression_w: float = 0.0
    polling_w: float = 0.0

    @property
    def total_w(self) -> float:
        return (self.device_w + self.host_threads_w
                + self.cpu_compression_w + self.polling_w)


def net_power_w(config: str, device_count: int = 1,
                host_threads: int = 8,
                cpu_utilization: float = 1.0) -> NetPowerBreakdown:
    """Net system power for a named device configuration.

    ``config`` is a key of :data:`DEVICE_POWER` or ``"cpu"`` for pure
    software compression.
    """
    breakdown = NetPowerBreakdown()
    if config == "cpu":
        breakdown.cpu_compression_w = CPU_PACKAGE_ACTIVE_W * cpu_utilization
        return breakdown
    if config not in DEVICE_POWER:
        raise ConfigurationError(
            f"unknown power config {config!r}; known: "
            f"{sorted(DEVICE_POWER) + ['cpu']}"
        )
    power = DEVICE_POWER[config]
    breakdown.device_w = power.net_w() * device_count
    breakdown.host_threads_w = HOST_THREAD_W * host_threads
    if config.startswith("qat"):
        breakdown.polling_w = QAT_POLLING_W_PER_THREAD * host_threads
    return breakdown


def device_active_w(device: CdpuDevice) -> float:
    """Active wattage of a hw device, looked up by its kind.

    The key is :attr:`~repro.hw.engine.CdpuDevice.power_kind`, never
    the instance name, so renamed fleet members (``dpzip0``,
    ``cpu-spill``) draw what their kind draws.  CPU software devices
    draw the full package power the paper measures against.
    """
    kind = device.power_kind
    if kind == "cpu":
        return CPU_PACKAGE_ACTIVE_W
    power = DEVICE_POWER.get(kind)
    if power is None:
        raise ConfigurationError(
            f"no power entry for device {device.name!r} (kind {kind!r}); "
            f"known: {sorted(DEVICE_POWER) + ['cpu']}"
        )
    return power.active_w


def plan_power_cap(active_w_by_name: dict[str, float],
                   budget_w: float) -> dict[str, float]:
    """Per-device speed factors fitting the fleet under ``budget_w``.

    Dynamic power scales roughly linearly with clock, so derating a
    device to a fraction of nominal speed scales its active draw by the
    same fraction.  The plan derates every device uniformly to the
    budget/demand ratio — the proportional brown-out a rack-level power
    cap applies — and leaves the fleet untouched when it already fits.
    Factors are floored at 5% of nominal: a power cap throttles devices,
    it does not silently unplug them.
    """
    if budget_w <= 0:
        raise ConfigurationError(f"power budget must be > 0, got {budget_w}")
    demand_w = sum(active_w_by_name.values())
    if demand_w <= budget_w:
        return {name: 1.0 for name in active_w_by_name}
    factor = max(budget_w / demand_w, 0.05)
    return {name: factor for name in active_w_by_name}


def efficiency_mb_per_joule(throughput_gbps: float,
                            net_w: float) -> float:
    """Paper's power-efficiency metric: MB moved per net joule."""
    if net_w <= 0:
        raise ConfigurationError(f"net power must be > 0, got {net_w}")
    return throughput_gbps * 1000.0 / net_w


def efficiency_ops_per_joule(ops_per_second: float, net_w: float) -> float:
    """YCSB efficiency (Figure 19): operations per net joule."""
    if net_w <= 0:
        raise ConfigurationError(f"net power must be > 0, got {net_w}")
    return ops_per_second / net_w
