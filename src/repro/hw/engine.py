"""Abstract CDPU device model (paper Figure 1's three placements).

Every device — peripheral QAT 8970, on-chip QAT 4xxx, in-storage DPZip,
FPGA CSD 2000, and the CPU software "device" — implements the same
interface: compress/decompress a buffer functionally *and* report a
phase-by-phase latency budget derived from its interconnect and engine
models.  System-level simulations reuse the same numbers through
:meth:`CdpuDevice.service_profile`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class Placement(enum.Enum):
    """Where the CDPU sits relative to the data (paper Figure 1)."""

    CPU_SOFTWARE = "cpu"
    PERIPHERAL = "peripheral"
    ON_CHIP = "on-chip"
    IN_STORAGE = "in-storage"


@dataclass
class PhaseLatency:
    """One request's latency budget, split by processing phase (ns)."""

    submit_ns: float = 0.0       # doorbell / descriptor enqueue
    read_ns: float = 0.0         # device reads source data
    compute_ns: float = 0.0      # (de)compression engine time
    verify_ns: float = 0.0       # post-compression verification pass
    write_ns: float = 0.0        # device writes result
    complete_ns: float = 0.0     # interrupt / polling observation
    firmware_ns: float = 0.0     # on-device firmware handling

    @property
    def total_ns(self) -> float:
        return (self.submit_ns + self.read_ns + self.compute_ns
                + self.verify_ns + self.write_ns + self.complete_ns
                + self.firmware_ns)

    @property
    def total_us(self) -> float:
        return self.total_ns / 1000.0


@dataclass
class RequestResult:
    """Outcome of one compress/decompress request against a device."""

    payload: bytes
    original_size: int
    latency: PhaseLatency = field(default_factory=PhaseLatency)
    engine_busy_ns: float = 0.0  # engine occupancy (for queueing models)

    @property
    def compressed_size(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size


@dataclass
class ServiceProfile:
    """Queueing-model view of a request for the DES layers."""

    engine_busy_ns: float
    pre_ns: float   # host-side + transfer-in latency before the engine
    post_ns: float  # transfer-out + completion latency after the engine
    engines: int    # engine instances sharing the request stream
    queue_depth: int


class CdpuDevice:
    """Base class for all compression devices."""

    name: str = "cdpu"
    placement: Placement = Placement.PERIPHERAL
    #: The device's kind in the :data:`repro.hw.power.DEVICE_POWER`
    #: catalogue (``"cpu"`` for host software), or ``None`` when the
    #: catalogue has no entry.  Renaming an instance does not change it.
    power_kind: str | None = None
    #: Parallel engine instances inside the device.
    engine_count: int = 1
    #: Hardware queue ceiling (requests in flight); the QAT queue-pair
    #: limit behind Finding 6.
    queue_depth: int = 1 << 16

    def compress(self, data: bytes) -> RequestResult:
        raise NotImplementedError

    def decompress(self, payload: bytes) -> RequestResult:
        raise NotImplementedError

    # -- queueing-model hooks ------------------------------------------------

    def service_profile(self, result: RequestResult) -> ServiceProfile:
        """Split a measured request into queueing-model components."""
        lat = result.latency
        return ServiceProfile(
            engine_busy_ns=result.engine_busy_ns,
            pre_ns=lat.submit_ns + lat.read_ns + lat.firmware_ns / 2,
            post_ns=lat.write_ns + lat.complete_ns + lat.firmware_ns / 2,
            engines=self.engine_count,
            queue_depth=self.queue_depth,
        )

    def steady_state_gbps(self, result: RequestResult,
                          concurrency: int | None = None) -> float:
        """Aggregate device throughput with a saturating request stream.

        With enough concurrency every engine stays busy, so throughput
        is ``engines * bytes / engine_busy_ns``; limited concurrency
        caps utilization at ``concurrency`` outstanding requests
        (classic closed-loop queueing bound).
        """
        if result.engine_busy_ns <= 0:
            raise ConfigurationError("request has no engine occupancy")
        per_engine = result.original_size / result.engine_busy_ns
        engines = self.engine_count
        if concurrency is not None:
            effective = min(concurrency, self.queue_depth)
            # Each in-flight request alternates between engine occupancy
            # and transfer phases; utilization follows the busy fraction.
            profile = self.service_profile(result)
            cycle_ns = profile.pre_ns + profile.engine_busy_ns + profile.post_ns
            max_by_concurrency = (
                effective * result.original_size / cycle_ns
            )
            return min(engines * per_engine, max_by_concurrency)
        return engines * per_engine
