"""DPZip ASIC engine model (paper §3, Table 1 "DPZip" row).

The functional datapath is :class:`repro.core.dpzip_codec.DpzipCodec`;
this module charges cycles to its work counters.  The engine runs at
1 GHz, processes 8 bytes per cycle through parallel pipelines, and the
block has **two** compression and **two** decompression pipeline
instances (spec 128/160 Gbps C/D = 16/20 GB/s).

Throughput is set by the slowest pipeline *stage* (match search,
entropy coding, output write-back, verification), so the model's
data-pattern behaviour emerges from real counter values:

* highly compressible pages spend cycles in match extension;
* incompressible pages fall back to raw pass-through (cheap output,
  no entropy stage), which is the recovery at 80-100% compression
  ratio in Figure 12;
* mid-range pages pay the full Huffman cost — the mild dip that stays
  within ~15% of peak (Finding 5).

The ~2 us 4 KB transfer latency and 274-cycle canonizer bound from §3
appear as explicit terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dpzip_codec import DpzipCodec, DpzipResult
from repro.core.lz77 import DecoderStats
from repro.hw.cycles import PipelineAccount, cycles_to_ns
from repro.hw.engine import (
    CdpuDevice,
    PhaseLatency,
    Placement,
    RequestResult,
)
from repro.interconnect.axi import AxiPath


@dataclass
class DpzipEngineSpec:
    """Microarchitectural parameters (paper §3.1)."""

    frequency_ghz: float = 1.0
    comp_pipelines: int = 2
    decomp_pipelines: int = 2
    pipeline_fill_cycles: float = 64.0
    #: Match-stage issue: the four positions of a group are hashed and
    #: compared by parallel units, so the charge is per *group*.  Miss
    #: groups stream faster (skip-ahead, no match unit handoff).
    matched_group_cycles: float = 0.85
    miss_group_cycles: float = 0.75
    #: Raw pass-through pages stream misses at the full 8 B/cycle (the
    #: engine's incompressibility early-exit) — Figure 12's recovery in
    #: the 80-100% ratio band.
    raw_page_miss_group_cycles: float = 0.5
    #: Input streaming cap: the engine consumes 8 bytes per cycle
    #: (paper §3.1), bounding throughput on highly-redundant pages.
    input_bytes_per_cycle: float = 8.0
    extension_bytes_per_cycle: float = 32.0
    #: Huffman literal coding rate and canonizer overlap with the
    #: pipeline (stage 1's scan overlaps the literal stream).
    huffman_literals_per_cycle: float = 6.0
    canonizer_overlap: float = 0.35
    #: Three FSE engines (LL/ML/OF) run in parallel.
    fse_symbols_per_cycle: float = 8.0
    output_bytes_per_cycle: float = 8.0
    #: Decoder's dual-pipeline copy rates (§3.2.4).
    literal_copy_bytes_per_cycle: float = 12.0
    match_copy_bytes_per_cycle: float = 16.0
    sequence_issue_cycles: float = 0.25
    overlap_stall_cycles: float = 2.0
    #: Verification readback rate (runs on the decode pipelines).
    verify_bytes_per_cycle: float = 24.0
    #: Per-request firmware handling inside the controller.
    firmware_ns: float = 700.0


class DpzipEngine(CdpuDevice):
    """In-storage DPZip accelerator (DRAM-backed execution path).

    This is the paper's "DPZip" configuration — the full controller data
    path with DRAM substituting for NAND (Figure 12 separates it from
    the NAND-backed "DP-CSD").  The NAND-backed device model lives in
    :mod:`repro.ssd.csd`.
    """

    name = "dpzip"
    power_kind = "dpzip-engine"
    placement = Placement.IN_STORAGE

    def __init__(self, spec: DpzipEngineSpec | None = None,
                 page_bytes: int = 4096) -> None:
        self.spec = spec or DpzipEngineSpec()
        self.engine_count = self.spec.comp_pipelines
        self.queue_depth = 256  # NVMe-class submission depth
        self.codec = DpzipCodec(page_bytes=page_bytes)
        self.axi = AxiPath()
        self.last_account: PipelineAccount | None = None

    # -- cycle models -------------------------------------------------------

    def compression_cycles(self, result: DpzipResult) -> PipelineAccount:
        """Steady-state cycle account for one compress request."""
        spec = self.spec
        account = PipelineAccount(fill_depth_cycles=spec.pipeline_fill_cycles)
        account.charge("input",
                       result.original_size / spec.input_bytes_per_cycle)
        match_cycles = 0.0
        huffman_cycles = 0.0
        fse_cycles = 0.0
        page_stats = result.page_encoder_stats or [result.encoder_stats]
        for index, stats in enumerate(page_stats):
            raw = (index < len(result.block_stats)
                   and result.block_stats[index].raw_fallback)
            miss_rate = (spec.raw_page_miss_group_cycles if raw
                         else spec.miss_group_cycles)
            matched_groups = stats.groups - stats.skipped_groups
            match_cycles += (
                matched_groups * spec.matched_group_cycles
                + stats.skipped_groups * miss_rate
                + stats.extension_bytes / spec.extension_bytes_per_cycle
            )
            if raw:
                continue  # raw pass-through skips the entropy stages
            block = result.block_stats[index]
            huffman_cycles += (
                block.huffman_symbols / spec.huffman_literals_per_cycle
                + block.canonizer_cycles * spec.canonizer_overlap
            )
            fse_cycles += (
                block.fse.symbols_encoded / spec.fse_symbols_per_cycle
            )
        account.charge("match", match_cycles)
        account.charge("entropy", huffman_cycles + fse_cycles)
        account.charge("output",
                       result.compressed_size / spec.output_bytes_per_cycle)
        # Post-compression verification decompresses the output; it runs
        # on the decompression pipelines but gates request completion.
        account.charge("verify",
                       result.original_size / spec.verify_bytes_per_cycle)
        return account

    def decompression_cycles(self, stats: DecoderStats,
                             in_bytes: int, out_bytes: int) -> PipelineAccount:
        """Steady-state cycle account for one decompress request."""
        spec = self.spec
        account = PipelineAccount(fill_depth_cycles=spec.pipeline_fill_cycles)
        account.charge("input", in_bytes / (2 * spec.output_bytes_per_cycle))
        account.charge("literal",
                       stats.literal_bytes / spec.literal_copy_bytes_per_cycle)
        account.charge(
            "match",
            stats.match_bytes / spec.match_copy_bytes_per_cycle
            + stats.sequences * spec.sequence_issue_cycles
            + stats.overlap_copies * spec.overlap_stall_cycles,
        )
        return account

    # -- device interface -----------------------------------------------------

    def compress(self, data: bytes) -> RequestResult:
        result = self.codec.compress(data)
        account = self.compression_cycles(result)
        self.last_account = account
        engine_ns = cycles_to_ns(account.bottleneck_cycles(),
                                 self.spec.frequency_ghz)
        latency = PhaseLatency(
            submit_ns=self.axi.doorbell_ns(),
            read_ns=self.axi.transfer_ns(len(data)),
            compute_ns=cycles_to_ns(account.latency_cycles(),
                                    self.spec.frequency_ghz),
            verify_ns=0.0,  # verification is pipelined into compute
            write_ns=self.axi.transfer_ns(result.compressed_size) * 0.5,
            complete_ns=self.axi.completion_ns(),
            firmware_ns=self.spec.firmware_ns,
        )
        return RequestResult(
            payload=result.payload,
            original_size=len(data),
            latency=latency,
            engine_busy_ns=engine_ns,
        )

    def decompress(self, payload: bytes) -> RequestResult:
        data, stats = self.codec.decompress_with_stats(payload)
        account = self.decompression_cycles(stats, len(payload), len(data))
        self.last_account = account
        engine_ns = cycles_to_ns(account.bottleneck_cycles(),
                                 self.spec.frequency_ghz)
        latency = PhaseLatency(
            submit_ns=self.axi.doorbell_ns(),
            read_ns=self.axi.transfer_ns(len(payload)) * 0.5,
            compute_ns=cycles_to_ns(account.latency_cycles(),
                                    self.spec.frequency_ghz),
            write_ns=self.axi.transfer_ns(len(data)) * 0.5,
            complete_ns=self.axi.completion_ns(),
            firmware_ns=self.spec.firmware_ns * 0.5,
        )
        return RequestResult(
            payload=data,
            original_size=len(data),
            latency=latency,
            engine_busy_ns=engine_ns,
        )

    # -- area ---------------------------------------------------------------

    @property
    def die_area_mm2(self) -> float:
        """DPZip block area: 6 mm^2 of the 132 mm^2 controller (§3.1)."""
        return 6.0
