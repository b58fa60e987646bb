"""The unified per-run result schema.

Every :meth:`~repro.cluster.session.Cluster.run` returns one
:class:`RunResult`, whatever mix of clients drove the run — so
experiments, examples and the CLI all tabulate the same row shape
instead of choosing between :class:`~repro.service.scheduler.
ServiceReport` and :class:`~repro.store.store.StoreReport` per call
site.  The full reports stay attached for deep dives (placement
breakdowns, SLO classes, cache stats); :meth:`RunResult.row` is the
merged flat view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServiceError, TelemetryError
from repro.service.scheduler import ServiceReport
from repro.store.store import StoreReport
from repro.telemetry import (
    HealthReport,
    TelemetryReport,
    WallClockProfile,
    build_health,
)


@dataclass
class RunResult:
    """One run's outcome: fleet-wide reports plus per-client rows."""

    duration_ns: float
    service: ServiceReport
    store: StoreReport | None = None
    #: One flat dict per client handle (mode, goodput, percentiles).
    clients: list[dict] = field(default_factory=list)
    #: Telemetry snapshot (spans + sampled series) when the run's spec
    #: declared a telemetry section; None otherwise.
    telemetry: TelemetryReport | None = None
    #: Where :meth:`export_trace` last wrote the trace, if anywhere.
    trace_path: str | None = None
    #: Host wall-clock attribution when the run was profiled
    #: (``Cluster.enable_profiling()`` / ``--profile``); None otherwise.
    wall_profile: WallClockProfile | None = None

    # -- convenience views -----------------------------------------------------

    @property
    def policy(self) -> str:
        return self.service.policy

    @property
    def completed_gbps(self) -> float:
        """Fleet-wide goodput over the measurement window."""
        return self.service.completed_gbps

    @property
    def slo_breakdown(self) -> list[dict]:
        return self.service.slo_breakdown

    def slo_miss_rate(self, slo_name: str) -> float:
        return self.service.slo_miss_rate(slo_name)

    def client(self, name: str) -> dict:
        """The per-client row for one client handle by name."""
        for row in self.clients:
            if row["client"] == name:
                return row
        raise ServiceError(
            f"no client named {name!r} in this run; clients: "
            f"{[row['client'] for row in self.clients]}"
        )

    # -- telemetry views -------------------------------------------------------

    def metrics_rows(self) -> list[dict]:
        """The sampled metrics time series (empty without telemetry)."""
        if self.telemetry is None:
            return []
        return self.telemetry.metrics_rows

    def export_trace(self, path: str) -> str:
        """Write this run's trace as Chrome trace-event JSON to ``path``
        (openable in ui.perfetto.dev) and remember it in ``trace_path``."""
        if self.telemetry is None:
            raise TelemetryError(
                "this run recorded no telemetry; set "
                "TelemetrySpec.trace in the ClusterSpec's telemetry "
                "section (or pass --trace) first"
            )
        if not self.telemetry.tracing:
            raise TelemetryError(
                "this run sampled metrics but recorded no spans; set "
                "TelemetrySpec.trace (or pass --trace) to export a trace"
            )
        self.trace_path = self.telemetry.write_trace(path)
        return self.trace_path

    def health(self) -> HealthReport:
        """Scan this run's telemetry into a pass/warn/fail verdict.

        Evaluates the stamped SLO objectives with burn-rate alerting
        and runs the health scanners (saturation plateaus, shed
        bursts, cache-hit collapse, span-chain gaps) over the sampled
        series and recorded spans.  Requires telemetry: raises
        :class:`~repro.errors.TelemetryError` naming the missing
        ``TelemetrySpec`` field otherwise.
        """
        if self.telemetry is None:
            raise TelemetryError(
                "this run recorded no telemetry to analyze; set "
                "TelemetrySpec.metrics_interval_ns (and ideally "
                "TelemetrySpec.trace) in the ClusterSpec first"
            )
        report = self.telemetry
        return build_health(
            report.metrics_rows,
            horizon_ns=report.horizon_ns,
            objectives=report.objectives,
            recorded=report.recorded,
            dropped=report.dropped,
            events=report.events,
            run_row=self.row(),
        )

    def row(self) -> dict:
        """Merged flat row: service columns plus store columns if a
        block-store tier served this run."""
        merged = self.service.row()
        if self.store is not None:
            store_row = self.store.row()
            store_row.pop("policy", None)
            store_row.pop("failed", None)
            merged.update(store_row)
            merged["failed_io"] = (self.store.failed_reads
                                   + self.store.failed_writes)
        return merged
