"""CPU software-compression cost model (the paper's baselines).

Per-algorithm cycles/byte are calibrated from the paper's single-request
4 KB latencies (Deflate 70 us, Zstd 20.4/7.4 us, Snappy 8.9/3.8 us on
the 2.7 GHz Xeon 8458P) and checked against its 88-thread throughput
numbers.  Multi-thread scaling applies a memory-contention efficiency
curve: compute-bound Deflate scales ~linearly, memory-bound Snappy
saturates (22.8 GB/s at 88 threads vs. 460 MB/s x 88 ideal).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import get_compressor
from repro.errors import ConfigurationError
from repro.hw.engine import (
    CdpuDevice,
    PhaseLatency,
    Placement,
    RequestResult,
)


@dataclass
class CpuAlgorithmCost:
    """Single-thread cost and scaling behaviour of one algorithm.

    Per-call overheads (buffer setup, table initialization) are charged
    once per compress/decompress call; they are what makes 64 KB chunks
    ~30% faster per byte than 4 KB for software Deflate (Finding 2).
    """

    comp_cycles_per_byte: float
    decomp_cycles_per_byte: float
    comp_overhead_ns: float
    decomp_overhead_ns: float
    #: Fraction of ideal scaling retained at full-socket thread count
    #: (88 threads); 1.0 = perfectly compute-bound.
    comp_scaling_at_max: float
    decomp_scaling_at_max: float


#: Calibrated to the paper's latency/throughput numbers at 2.7 GHz:
#: 4 KB latencies (Deflate 70 us, Zstd 20.4/7.4, Snappy 8.9/3.8) and
#: 88-thread throughputs (Deflate 4.9/13.6 GB/s, Snappy 22.8/20.3).
CPU_COSTS: dict[str, CpuAlgorithmCost] = {
    "deflate": CpuAlgorithmCost(34.3, 13.1, 18000.0, 4000.0, 1.0, 0.90),
    "zstd": CpuAlgorithmCost(9.5, 3.9, 6000.0, 1500.0, 0.82, 0.70),
    "snappy": CpuAlgorithmCost(5.1, 2.0, 1200.0, 800.0, 0.56, 0.214),
    "lz4": CpuAlgorithmCost(4.6, 1.7, 1000.0, 600.0, 0.58, 0.25),
}


@dataclass
class CpuSpec:
    """Socket parameters (Table 1: Xeon 8458P, 88 threads, 2.7 GHz)."""

    frequency_ghz: float = 2.7
    threads: int = 88


class CpuSoftwareDevice(CdpuDevice):
    """The host CPU as a (non-offloading) compression device."""

    placement = Placement.CPU_SOFTWARE
    power_kind = "cpu"

    def __init__(self, algorithm: str = "deflate", level: int = 1,
                 spec: CpuSpec | None = None,
                 threads: int | None = None) -> None:
        if algorithm not in CPU_COSTS:
            raise ConfigurationError(
                f"no CPU cost model for {algorithm!r}; "
                f"known: {sorted(CPU_COSTS)}"
            )
        self.name = f"cpu-{algorithm}"
        self.algorithm = algorithm
        self.spec = spec or CpuSpec()
        self.active_threads = threads if threads is not None else self.spec.threads
        self.engine_count = self.active_threads
        self.queue_depth = 1 << 16
        if algorithm in ("deflate", "zstd"):
            self._adapter = get_compressor(algorithm, level=level)
        else:
            self._adapter = get_compressor(algorithm)
        self.cost = CPU_COSTS[algorithm]

    # -- scaling --------------------------------------------------------------

    def scaling_efficiency(self, threads: int, decompress: bool = False) -> float:
        """Ideal-fraction retained at ``threads`` (linear ramp model)."""
        at_max = (self.cost.decomp_scaling_at_max if decompress
                  else self.cost.comp_scaling_at_max)
        if threads <= 1:
            return 1.0
        frac = min(threads, self.spec.threads) / self.spec.threads
        return 1.0 - (1.0 - at_max) * frac

    def single_thread_ns(self, nbytes: int, decompress: bool = False) -> float:
        if decompress:
            cpb = self.cost.decomp_cycles_per_byte
            overhead = self.cost.decomp_overhead_ns
        else:
            cpb = self.cost.comp_cycles_per_byte
            overhead = self.cost.comp_overhead_ns
        return overhead + nbytes * cpb / self.spec.frequency_ghz

    def aggregate_gbps(self, nbytes: int, threads: int | None = None,
                       decompress: bool = False) -> float:
        """Socket-level throughput at a given thread count."""
        threads = self.active_threads if threads is None else threads
        per_thread = nbytes / self.single_thread_ns(nbytes, decompress)
        return (per_thread * threads
                * self.scaling_efficiency(threads, decompress))

    # -- device interface ------------------------------------------------------

    def compress(self, data: bytes) -> RequestResult:
        outcome = self._adapter.compress(data)
        busy = self.single_thread_ns(len(data))
        latency = PhaseLatency(compute_ns=busy)
        return RequestResult(
            payload=outcome.payload,
            original_size=len(data),
            latency=latency,
            engine_busy_ns=busy / max(
                self.scaling_efficiency(self.active_threads), 1e-9
            ),
        )

    def decompress(self, payload: bytes) -> RequestResult:
        data = self._adapter.decompress(payload)
        busy = self.single_thread_ns(len(data), decompress=True)
        latency = PhaseLatency(compute_ns=busy)
        return RequestResult(
            payload=data,
            original_size=len(data),
            latency=latency,
            engine_busy_ns=busy / max(
                self.scaling_efficiency(self.active_threads, True), 1e-9
            ),
        )
