"""Computational-storage device models (paper Table 1, bottom rows).

Four devices share the controller substrate:

* :class:`DpCsd` — the DapuStor DP-CSD: DPZip engine + FTL + NAND over
  PCIe 5.0 x4.  Fully application-transparent (Finding 8).
* :class:`DpzipDram` — identical path with DRAM substituting NAND; the
  configuration Figure 12 labels "DPZip" to isolate medium effects.
* :class:`PlainSsd` — conventional NVMe SSD (the OFF baseline and the
  "SSD" row of Figure 20).
* :class:`Csd2000` — ScaleFlux CSD 2000: FPGA gzip engine behind a
  2.5 GB/s internal interconnect on PCIe 3.0 x4; its constrained
  resources reproduce Finding 7's degradation under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.deflate import DeflateCodec
from repro.hw.dpzip import DpzipEngine
from repro.hw.engine import (
    CdpuDevice,
    PhaseLatency,
    Placement,
    RequestResult,
)
from repro.interconnect.pcie import csd2000_link, dpcsd_link
from repro.ssd.controller import ControllerSpec, SsdController
from repro.ssd.ftl import PAGE_BYTES
from repro.ssd.nand import NandArray, NandSpec


@dataclass
class CsdThroughputLimits:
    """The ceilings that shape device-level throughput curves."""

    engine_gbps: float
    host_iops: float
    link_gbps: float
    media_gbps: float | None  # None when DRAM-backed

    def effective_gbps(self, chunk_bytes: int,
                       stored_fraction: float = 1.0) -> float:
        """min() of all paths; media cost scales with stored bytes."""
        bounds = [self.engine_gbps,
                  self.host_iops * chunk_bytes / 1e9,
                  self.link_gbps]
        if self.media_gbps is not None and stored_fraction > 0:
            bounds.append(self.media_gbps / stored_fraction)
        return min(bounds)


class _CompressingStorageDevice(CdpuDevice):
    """Shared write/read request machinery for the in-storage devices."""

    placement = Placement.IN_STORAGE

    def __init__(self, controller: SsdController) -> None:
        self.controller = controller
        self._next_lpn = 0
        engine = controller.engine
        self.engine_count = engine.engine_count if engine else 1
        self.queue_depth = 256

    # Microbenchmark protocol: "compress" = write the buffer through the
    # IO path as 4 KB pages; "decompress" = read the pages back.

    def compress(self, data: bytes) -> RequestResult:
        pages = _paginate(data)
        total = PhaseLatency()
        engine_busy = 0.0
        compressed = 0
        media_ns = 0.0
        first_lpn = self._next_lpn
        for page in pages:
            outcome = self.controller.write_page(self._next_lpn, page)
            self._next_lpn += 1
            _accumulate_pipelined(total, outcome.latency)
            engine_busy += outcome.engine_busy_ns
            compressed += outcome.compressed_size
            media_ns += outcome.nand_service_ns
        result = RequestResult(
            payload=_lpn_token(first_lpn, len(pages)),
            original_size=len(data),
            latency=total,
            engine_busy_ns=engine_busy / max(self.engine_count, 1),
        )
        result.compressed_bytes_stored = compressed
        result.media_service_ns = media_ns
        return result

    def decompress(self, payload: bytes) -> RequestResult:
        first_lpn, count = _parse_token(payload)
        total = PhaseLatency()
        engine_busy = 0.0
        media_ns = 0.0
        data = bytearray()
        for lpn in range(first_lpn, first_lpn + count):
            page, outcome = self.controller.read_page(lpn)
            data += page
            _accumulate_pipelined(total, outcome.latency)
            engine_busy += outcome.engine_busy_ns
            media_ns += outcome.nand_service_ns
        decomp_engines = 1
        if self.controller.engine is not None:
            decomp_engines = self.controller.engine.spec.decomp_pipelines
        result = RequestResult(
            payload=bytes(data),
            original_size=len(data),
            latency=total,
            engine_busy_ns=engine_busy / decomp_engines,
        )
        result.media_service_ns = media_ns
        return result

    # -- device-level throughput ceilings -----------------------------------

    def _host_iops(self, write: bool) -> float:
        spec = self.controller.spec
        return spec.write_iops_ceiling if write else spec.read_iops_ceiling

    def _media_gbps(self, write: bool) -> float | None:
        nand = self.controller.nand
        if nand is None:
            return None
        if write:
            return nand.spec.program_bandwidth_gbps
        return nand.spec.read_bandwidth_gbps

    def throughput_limits(self, result: RequestResult,
                          write: bool = True) -> CsdThroughputLimits:
        # ``engine_busy_ns`` already folds the pipeline count in (pages
        # of one request spread across the engine instances).
        if result.engine_busy_ns > 0:
            engine_gbps = result.original_size / result.engine_busy_ns
        else:
            engine_gbps = float("inf")
        return CsdThroughputLimits(
            engine_gbps=engine_gbps,
            host_iops=self._host_iops(write),
            link_gbps=self.controller.link.spec.link_bandwidth_gbps,
            media_gbps=self._media_gbps(write),
        )

    def device_throughput_gbps(self, result: RequestResult,
                               write: bool = True) -> float:
        """Saturated device throughput for requests like ``result``.

        The minimum of the engine rate, the host IOPS ceiling (one NVMe
        request per ``result``), the PCIe link, and — for NAND-backed
        devices — the media bandwidth inflated by the stored fraction.
        """
        limits = self.throughput_limits(result, write)
        chunk = max(result.original_size, 1)
        stored_fraction = 1.0
        stored = getattr(result, "compressed_bytes_stored", None)
        if write and stored is not None and chunk:
            stored_fraction = stored / chunk
        return limits.effective_gbps(chunk, stored_fraction)


def _paginate(data: bytes) -> list[bytes]:
    pages = []
    for offset in range(0, max(len(data), 1), PAGE_BYTES):
        page = data[offset:offset + PAGE_BYTES]
        if len(page) < PAGE_BYTES:
            page = page + bytes(PAGE_BYTES - len(page))
        pages.append(page)
    return pages


def _accumulate_pipelined(total: PhaseLatency, one: PhaseLatency) -> None:
    """First page pays full latency; subsequent pages pipeline."""
    if total.total_ns == 0.0:
        total.submit_ns = one.submit_ns
        total.read_ns = one.read_ns
        total.compute_ns = one.compute_ns
        total.verify_ns = one.verify_ns
        total.write_ns = one.write_ns
        total.complete_ns = one.complete_ns
        total.firmware_ns = one.firmware_ns
    else:
        # Steady-state: only the bottleneck phase extends the request.
        total.compute_ns += max(one.compute_ns, one.write_ns,
                                one.read_ns * 0.25)


def _lpn_token(first_lpn: int, count: int) -> bytes:
    return first_lpn.to_bytes(8, "little") + count.to_bytes(4, "little")


def _parse_token(payload: bytes) -> tuple[int, int]:
    return (int.from_bytes(payload[:8], "little"),
            int.from_bytes(payload[8:12], "little"))


class DpCsd(_CompressingStorageDevice):
    """DapuStor DP-CSD: DPZip + FTL + NAND, PCIe 5.0 x4."""

    name = "dpcsd"
    power_kind = "dpcsd"

    def __init__(self, physical_pages: int = 4096,
                 spec: ControllerSpec | None = None) -> None:
        controller = SsdController(
            physical_pages,
            engine=DpzipEngine(),
            nand=NandArray(NandSpec()),
            spec=spec,
            link=dpcsd_link(),
        )
        super().__init__(controller)


class DpzipDram(_CompressingStorageDevice):
    """DP-CSD execution path with DRAM in place of NAND (Fig. 12)."""

    name = "dpzip-dram"
    power_kind = "dpzip-engine"

    def __init__(self, physical_pages: int = 4096,
                 spec: ControllerSpec | None = None) -> None:
        controller = SsdController(
            physical_pages,
            engine=DpzipEngine(),
            nand=None,
            spec=spec,
            link=dpcsd_link(),
        )
        super().__init__(controller)


class PlainSsd(_CompressingStorageDevice):
    """Conventional NVMe SSD (OFF baseline; Figure 20's 'SSD')."""

    name = "ssd"
    power_kind = "ssd"

    def __init__(self, physical_pages: int = 4096,
                 spec: ControllerSpec | None = None) -> None:
        controller = SsdController(
            physical_pages,
            engine=None,
            nand=NandArray(NandSpec()),
            spec=spec,
            link=dpcsd_link(),
        )
        super().__init__(controller)


class Csd2000(CdpuDevice):
    """ScaleFlux CSD 2000: FPGA gzip CDPU, PCIe 3.0 x4 (Table 1).

    The FPGA engine streams at ~2.5/3.0 GB/s (spec 20/24 Gbps) behind a
    low-bandwidth internal interconnect, with a shallow request queue —
    the combination behind its collapse under high concurrency
    (Finding 7).
    """

    name = "csd2000"
    power_kind = "csd2000"
    placement = Placement.IN_STORAGE
    engine_count = 1
    queue_depth = 8

    #: FPGA engine parameters.
    comp_stream_gbps = 2.5
    decomp_stream_gbps = 3.0
    request_overhead_ns = 9000.0

    def __init__(self) -> None:
        self.codec = DeflateCodec(level=1)
        self.link = csd2000_link()

    def compress(self, data: bytes) -> RequestResult:
        payload = self.codec.compress(data)
        engine_ns = (self.request_overhead_ns
                     + len(data) / self.comp_stream_gbps)
        latency = PhaseLatency(
            submit_ns=self.link.doorbell_ns(),
            read_ns=self.link.dma_read_ns(len(data)),
            compute_ns=engine_ns,
            write_ns=0.0,  # stays inside the device
            complete_ns=self.link.completion_ns() * 0.5,
            firmware_ns=3000.0,
        )
        return RequestResult(payload=payload, original_size=len(data),
                             latency=latency, engine_busy_ns=engine_ns)

    def decompress(self, payload: bytes) -> RequestResult:
        data = self.codec.decompress(payload)
        engine_ns = (self.request_overhead_ns * 0.6
                     + len(data) / self.decomp_stream_gbps)
        latency = PhaseLatency(
            submit_ns=self.link.doorbell_ns(),
            read_ns=0.0,
            compute_ns=engine_ns,
            write_ns=self.link.dma_write_ns(len(data)),
            complete_ns=self.link.completion_ns() * 0.5,
            firmware_ns=2000.0,
        )
        return RequestResult(payload=data, original_size=len(data),
                             latency=latency, engine_busy_ns=engine_ns)
