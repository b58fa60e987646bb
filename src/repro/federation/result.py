"""Merged federation results: one RunResult over N member clusters.

The federated session produces *both* views:

* a merged :class:`~repro.service.scheduler.ServiceReport` whose counts
  and bytes sum over every member, whose percentiles come from the
  federated driver's own end-to-end recorder (fabric hops included),
  and whose breakdown rows are the members' rows tagged with a
  ``cluster`` column — riding on a standard
  :class:`~repro.cluster.result.RunResult` so every downstream table,
  CSV export and health scan works unchanged;
* the per-member :class:`ServiceReport` list and the
  :class:`~repro.federation.router.RouterReport` cross-cluster
  breakdown, for the questions only a federation has ("how much
  traffic went remote, and what did the fabric cost it?").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.result import RunResult
from repro.federation.router import RouterReport
from repro.service.scheduler import ServiceReport
from repro.sim.stats import LatencyRecorder

__all__ = ["FederationResult", "merge_service_reports"]


def merge_service_reports(members: list[tuple[str, ServiceReport]],
                          routing: str, duration_ns: float,
                          latency: LatencyRecorder) -> ServiceReport:
    """Fold member reports into one federation-wide ServiceReport.

    ``latency`` is the driver's end-to-end recorder — the only place
    fabric hop time is visible — so the merged percentiles are *not*
    the member percentiles re-averaged.  Member breakdown rows keep
    their numbers, tagged with the member name in a ``cluster`` column;
    the SLO breakdown is re-aggregated per class with its miss rate
    recomputed from the summed counters.
    """
    summary = latency.summary_us()
    breakdown: list[dict] = []
    op_breakdown: list[dict] = []
    per_device: list[dict] = []
    slo: dict[str, dict] = {}
    totals = {"offered": 0, "completed": 0, "spilled": 0, "shed": 0,
              "migrated": 0, "completed_bytes": 0, "window_bytes": 0}
    for name, report in members:
        for key in totals:
            totals[key] += getattr(report, key)
        breakdown.extend({"cluster": name, **row}
                         for row in report.breakdown)
        op_breakdown.extend({"cluster": name, **row}
                            for row in report.op_breakdown)
        per_device.extend({"cluster": name, **row}
                          for row in report.per_device)
        for row in report.slo_breakdown:
            entry = slo.get(row["slo"])
            if entry is None:
                entry = {"slo": row["slo"], "tier": row["tier"],
                         "completed": 0, "missed": 0, "shed": 0,
                         "infeasible": 0, "p50_us": 0.0, "p99_us": 0.0}
                slo[row["slo"]] = entry
            for counter in ("completed", "missed", "shed", "infeasible"):
                entry[counter] += row[counter]
            # Percentiles do not merge; report the worst member's view.
            entry["p50_us"] = max(entry["p50_us"], row["p50_us"])
            entry["p99_us"] = max(entry["p99_us"], row["p99_us"])
    slo_breakdown = []
    for entry in sorted(slo.values(),
                        key=lambda e: (e["tier"], e["slo"])):
        served = entry["completed"] + entry["shed"]
        entry["miss_rate"] = ((entry["missed"] + entry["shed"]) / served
                              if served else 0.0)
        slo_breakdown.append(entry)
    return ServiceReport(
        policy=f"federated/{routing}",
        duration_ns=duration_ns,
        offered=totals["offered"],
        completed=totals["completed"],
        spilled=totals["spilled"],
        shed=totals["shed"],
        migrated=totals["migrated"],
        completed_bytes=totals["completed_bytes"],
        window_bytes=totals["window_bytes"],
        mean_us=summary["mean_us"],
        p50_us=summary["p50_us"],
        p95_us=summary["p95_us"],
        p99_us=summary["p99_us"],
        breakdown=breakdown,
        op_breakdown=op_breakdown,
        slo_breakdown=slo_breakdown,
        per_device=per_device,
    )


@dataclass
class FederationResult:
    """One federated run's full outcome.

    ``run`` is the merged :class:`RunResult` (what exports, health
    scans and sweep tables consume); ``members`` the per-member
    service reports in declaration order; ``router`` the cross-cluster
    routing breakdown.
    """

    run: RunResult
    members: list[tuple[str, ServiceReport]] = field(default_factory=list)
    router: RouterReport | None = None

    def row(self) -> dict:
        """The merged flat row plus the cross-cluster headline."""
        row = self.run.row()
        if self.router is not None:
            row["remote_fraction"] = self.router.remote_fraction
        return row

    def member_rows(self) -> list[dict]:
        """One flat service row per member, ``cluster``-tagged."""
        return [{"cluster": name, **report.row()}
                for name, report in self.members]

    def router_rows(self) -> list[dict]:
        return self.router.rows() if self.router is not None else []
