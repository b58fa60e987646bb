"""Run-health analysis: SLO burn-rate monitors over the metrics series.

PR 6 gave runs raw telemetry — span chains and a sampled time series —
but nothing *interprets* it: a run shedding half its interactive
traffic looks exactly like a healthy one until a human opens the
Perfetto trace.  This module turns the raw data into verdicts:

* :class:`SloObjective` — one declarative service-level objective
  (deadline-miss budget, shed-rate ceiling, power cap, cache hit-rate
  floor, run-level p99 bound) bound to a metrics column;
* :func:`evaluate_objectives` — multi-window burn-rate evaluation in
  simulated time (the SRE-workbook discipline: an alert fires only
  when both a long and a short window burn the error budget faster
  than the window's factor), producing structured :class:`Alert`
  records that carry their evidence window;
* :func:`build_health` — the full :class:`HealthReport`: alerts plus
  scanners for saturation plateaus, shed bursts, cache-hit collapse
  and dropped-span data loss, folded into one pass/warn/fail verdict
  rendered as deterministic text or markdown.

Everything here is pure data → data: the same metrics rows and
objectives always produce byte-identical report text, so health
verdicts are comparable across sweep workers exactly like the trace
and metrics artifacts themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import TelemetryError
from repro.speccodec import Spec

#: Objective senses: "max" bounds the column from above (miss rate,
#: shed rate, power draw), "min" from below (cache hit rate).
OBJECTIVE_SENSES = ("max", "min")

#: Objective scopes: "series" objectives burn-rate-evaluate the sampled
#: metrics rows; "run" objectives check one column of the final merged
#: run row (p99_us, completed_gbps) against the limit once.
OBJECTIVE_SCOPES = ("series", "run")

#: Where an objective came from: "declared" objectives (spec/user) are
#: loud when their column never appears; "default" objectives (derived
#: from the cluster spec) degrade to an info finding instead.
OBJECTIVE_SOURCES = ("declared", "default")

#: Utilization level treated as a saturation plateau by the scanner.
SATURATION_LEVEL = 0.98

#: Consecutive saturated samples before the plateau scanner reports.
SATURATION_RUN = 3

#: Per-sample shed fraction that counts as a shed burst.
SHED_BURST_LEVEL = 0.05

#: A cache-hit collapse is a drop below this fraction of the running
#: peak hit rate (once the peak itself is meaningful).
CACHE_COLLAPSE_FRACTION = 0.5
CACHE_COLLAPSE_MIN_PEAK = 0.2


class _Spec(Spec):
    __slots__ = ()
    error = TelemetryError


@dataclass(frozen=True, slots=True)
class SloObjective(_Spec):
    """One declarative objective over a telemetry column.

    ``column`` names a metrics-row column (``miss_interactive``,
    ``shed_rate``, ``power_w``, ``hit_rate``) for series scope, or a
    merged run-row column (``p99_us``) for run scope.  ``sense="max"``
    means the value must stay at or below ``limit``; ``"min"`` at or
    above.  ``budget`` is the error budget: the tolerated fraction of
    samples allowed to violate the limit over the whole run — burn
    rate is (violating fraction in a window) / budget.
    """

    name: str
    column: str
    limit: float
    sense: str = "max"
    budget: float = 0.01
    scope: str = "series"
    source: str = "declared"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise TelemetryError("SLO objective needs a non-empty name")
        if not self.column:
            raise TelemetryError(
                f"SLO objective {self.name!r} needs a metrics column"
            )
        if self.sense not in OBJECTIVE_SENSES:
            raise TelemetryError(
                f"objective {self.name!r}: sense must be one of "
                f"{list(OBJECTIVE_SENSES)}, got {self.sense!r}"
            )
        if not 0.0 < self.budget <= 1.0:
            raise TelemetryError(
                f"objective {self.name!r}: budget must be in (0, 1], "
                f"got {self.budget}"
            )
        if self.scope not in OBJECTIVE_SCOPES:
            raise TelemetryError(
                f"objective {self.name!r}: scope must be one of "
                f"{list(OBJECTIVE_SCOPES)}, got {self.scope!r}"
            )
        if self.source not in OBJECTIVE_SOURCES:
            raise TelemetryError(
                f"objective {self.name!r}: source must be one of "
                f"{list(OBJECTIVE_SOURCES)}, got {self.source!r}"
            )

    def violated(self, value: float) -> bool:
        """Whether one observed ``value`` breaks the objective."""
        if self.sense == "max":
            return value > self.limit
        return value < self.limit

    def describe(self) -> str:
        relation = "<=" if self.sense == "max" else ">="
        text = f"{self.column} {relation} {self.limit:g}"
        if self.scope == "series":
            text += f" (budget {self.budget * 100:g}% of samples)"
        else:
            text += " (whole run)"
        return text


@dataclass(frozen=True, slots=True)
class BurnWindow:
    """One (long, short) burn-rate window pair.

    Window lengths are fractions of the run horizon so the same policy
    scales from a 2 ms smoke run to a multi-second sweep point.  An
    alert fires at a sample only when both the long *and* the short
    window burn the budget at ``factor`` or faster — the long window
    provides significance, the short one proves the burn is current.
    """

    name: str
    long_frac: float
    short_frac: float
    factor: float
    severity: str

    def __post_init__(self) -> None:
        if not 0.0 < self.short_frac <= self.long_frac <= 1.0:
            raise TelemetryError(
                f"burn window {self.name!r}: need 0 < short_frac <= "
                f"long_frac <= 1, got {self.short_frac}/{self.long_frac}"
            )
        if self.factor <= 0:
            raise TelemetryError(
                f"burn window {self.name!r}: factor must be > 0, "
                f"got {self.factor}"
            )
        if self.severity not in ("page", "warn"):
            raise TelemetryError(
                f"burn window {self.name!r}: severity must be 'page' or "
                f"'warn', got {self.severity!r}"
            )


#: The default multi-window policy: a fast burn pages, a slow one warns.
DEFAULT_BURN_WINDOWS = (
    BurnWindow("fast", long_frac=0.10, short_frac=0.025,
               factor=10.0, severity="page"),
    BurnWindow("slow", long_frac=0.50, short_frac=0.125,
               factor=2.0, severity="warn"),
)


@dataclass(frozen=True, slots=True)
class Alert:
    """One fired burn-rate monitor, carrying its evidence window."""

    objective: str
    severity: str
    window: str
    burn_rate: float
    short_burn_rate: float
    window_start_ms: float
    window_end_ms: float
    worst_value: float
    limit: float

    def describe(self) -> str:
        return (
            f"[{self.severity}] {self.objective} {self.window}-burn "
            f"{self.burn_rate:.1f}x budget (short {self.short_burn_rate:.1f}x) "
            f"in [{self.window_start_ms:.3f}, {self.window_end_ms:.3f}] ms; "
            f"worst {self.worst_value:.4g} vs limit {self.limit:g}"
        )

    def trace_args(self) -> dict:
        """Structured args for the trace control-track instant."""
        return {
            "severity": self.severity,
            "window": self.window,
            "burn_rate": round(self.burn_rate, 3),
            "short_burn_rate": round(self.short_burn_rate, 3),
            "window_start_ms": round(self.window_start_ms, 6),
            "window_end_ms": round(self.window_end_ms, 6),
            "worst_value": round(self.worst_value, 6),
            "limit": self.limit,
        }


def _series(rows: Sequence[dict], column: str) -> list[tuple[float, float]]:
    """(t_ms, value) pairs for ``column``, skipping rows without it."""
    series = []
    for row in rows:
        value = row.get(column)
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and value == value:  # NaN-free
            series.append((row.get("t_ms", 0.0), float(value)))
    return series


def _window_burn(series: list[tuple[float, float]], end_index: int,
                 window_ms: float, objective: SloObjective) -> float:
    """Burn rate of ``objective`` over (t_end - window_ms, t_end]."""
    t_end = series[end_index][0]
    total = 0
    violating = 0
    for index in range(end_index, -1, -1):
        t, value = series[index]
        if t <= t_end - window_ms:
            break
        total += 1
        if objective.violated(value):
            violating += 1
    if total == 0:
        return 0.0
    return (violating / total) / objective.budget


def evaluate_objectives(
        rows: Sequence[dict],
        objectives: Iterable[SloObjective],
        horizon_ns: float | None = None,
        windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
        run_row: dict | None = None) -> list[Alert]:
    """Evaluate every objective, returning all fired alerts.

    Series objectives burn-rate-evaluate the sampled ``rows`` against
    each window pair; consecutive firing samples merge into one alert
    whose evidence window spans from the start of the long window at
    first firing to the last firing sample.  Run-scope objectives
    check ``run_row`` once.  Objectives whose column never appears are
    skipped here — :func:`build_health` reports them as findings.
    """
    rows = list(rows)
    if horizon_ns is not None and horizon_ns > 0:
        horizon_ms = horizon_ns / 1e6
    elif rows:
        horizon_ms = rows[-1].get("t_ms", 0.0)
    else:
        horizon_ms = 0.0
    alerts: list[Alert] = []
    for objective in objectives:
        if objective.scope == "run":
            alerts.extend(_evaluate_run_scope(objective, run_row))
            continue
        series = _series(rows, objective.column)
        if not series:
            continue
        for window in windows:
            alerts.extend(_evaluate_window(objective, series,
                                           horizon_ms, window))
    alerts.sort(key=lambda alert: (alert.window_start_ms,
                                   alert.objective, alert.window))
    return alerts


def _evaluate_run_scope(objective: SloObjective,
                        run_row: dict | None) -> list[Alert]:
    if run_row is None:
        return []
    value = run_row.get(objective.column)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return []
    if not objective.violated(float(value)):
        return []
    return [Alert(
        objective=objective.name,
        severity="page",
        window="run",
        burn_rate=1.0 / objective.budget,
        short_burn_rate=1.0 / objective.budget,
        window_start_ms=0.0,
        window_end_ms=0.0,
        worst_value=float(value),
        limit=objective.limit,
    )]


def _evaluate_window(objective: SloObjective,
                     series: list[tuple[float, float]],
                     horizon_ms: float,
                     window: BurnWindow) -> list[Alert]:
    long_ms = window.long_frac * horizon_ms
    short_ms = window.short_frac * horizon_ms
    if long_ms <= 0:
        return []
    alerts: list[Alert] = []
    region: dict | None = None
    for index, (t, _) in enumerate(series):
        if t < long_ms:
            # The long window is not yet fully inside the run; firing
            # off a single early sample would page on no evidence.
            continue
        long_burn = _window_burn(series, index, long_ms, objective)
        short_burn = _window_burn(series, index, short_ms, objective)
        firing = long_burn >= window.factor and short_burn >= window.factor
        if firing:
            worst = _worst_in(series, t - long_ms, t, objective)
            if region is None:
                region = {
                    "start_ms": max(t - long_ms, 0.0),
                    "end_ms": t,
                    "burn": long_burn,
                    "short": short_burn,
                    "worst": worst,
                }
            else:
                region["end_ms"] = t
                region["burn"] = max(region["burn"], long_burn)
                region["short"] = max(region["short"], short_burn)
                region["worst"] = _worse(region["worst"], worst, objective)
        elif region is not None:
            alerts.append(_region_alert(objective, window, region))
            region = None
    if region is not None:
        alerts.append(_region_alert(objective, window, region))
    return alerts


def _worst_in(series: list[tuple[float, float]], start_ms: float,
              end_ms: float, objective: SloObjective) -> float:
    values = [value for t, value in series if start_ms < t <= end_ms]
    if not values:
        return float("nan")
    return max(values) if objective.sense == "max" else min(values)


def _worse(a: float, b: float, objective: SloObjective) -> float:
    if a != a:
        return b
    if b != b:
        return a
    return max(a, b) if objective.sense == "max" else min(a, b)


def _region_alert(objective: SloObjective, window: BurnWindow,
                  region: dict) -> Alert:
    return Alert(
        objective=objective.name,
        severity=window.severity,
        window=window.name,
        burn_rate=region["burn"],
        short_burn_rate=region["short"],
        window_start_ms=region["start_ms"],
        window_end_ms=region["end_ms"],
        worst_value=region["worst"],
        limit=objective.limit,
    )


# -- health report -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Finding:
    """One health-scanner observation with its evidence window."""

    severity: str  # "info" | "warn" | "fail"
    kind: str
    message: str
    window_start_ms: float | None = None
    window_end_ms: float | None = None

    def describe(self) -> str:
        where = ""
        if self.window_start_ms is not None:
            where = (f" in [{self.window_start_ms:.3f}, "
                     f"{self.window_end_ms:.3f}] ms")
        return f"[{self.severity}] {self.kind}: {self.message}{where}"


_SEVERITY_RANK = {"info": 0, "warn": 1, "fail": 2}


@dataclass(slots=True)
class HealthReport:
    """One run's health verdict with the evidence that produced it."""

    verdict: str
    findings: list[Finding] = field(default_factory=list)
    alerts: list[Alert] = field(default_factory=list)
    objectives: tuple[SloObjective, ...] = ()
    samples: int = 0
    spans_recorded: int = 0
    spans_dropped: int = 0
    horizon_ms: float = 0.0

    def objective_verdict(self, name: str) -> str:
        """pass/warn/fail for one objective by name."""
        worst = "pass"
        for alert in self.alerts:
            if alert.objective != name:
                continue
            if alert.severity == "page":
                return "fail"
            worst = "warn"
        return worst

    def row(self) -> dict:
        """Flat columns for sweep tables."""
        return {"health": self.verdict, "alerts": len(self.alerts)}

    # -- rendering -------------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"run health: {self.verdict.upper()} "
            f"({len(self.findings)} findings, {len(self.alerts)} alerts; "
            f"{self.samples} samples over {self.horizon_ms:.3f} ms, "
            f"{self.spans_recorded} spans recorded, "
            f"{self.spans_dropped} dropped)"
        ]
        if self.objectives:
            lines.append("objectives:")
            for objective in self.objectives:
                verdict = self.objective_verdict(objective.name)
                lines.append(f"  [{verdict}] {objective.name}: "
                             f"{objective.describe()}")
        if self.alerts:
            lines.append("alerts:")
            for alert in self.alerts:
                lines.append(f"  {alert.describe()}")
        if self.findings:
            lines.append("findings:")
            for finding in self.findings:
                lines.append(f"  {finding.describe()}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            f"## Run health: **{self.verdict.upper()}**",
            "",
            f"{self.samples} samples over {self.horizon_ms:.3f} ms; "
            f"{self.spans_recorded} spans recorded, "
            f"{self.spans_dropped} dropped.",
        ]
        if self.objectives:
            lines += ["", "### Objectives", "",
                      "| objective | target | verdict |",
                      "| --- | --- | --- |"]
            for objective in self.objectives:
                verdict = self.objective_verdict(objective.name)
                lines.append(f"| {objective.name} | "
                             f"`{objective.describe()}` | {verdict} |")
        if self.alerts:
            lines += ["", "### Alerts", ""]
            lines += [f"- {alert.describe()}" for alert in self.alerts]
        if self.findings:
            lines += ["", "### Findings", ""]
            lines += [f"- {finding.describe()}"
                      for finding in self.findings]
        return "\n".join(lines)


def _scan_saturation(rows: Sequence[dict]) -> list[Finding]:
    """Utilization plateaus: a device (or the fleet) pinned at the top."""
    if not rows:
        return []
    columns = sorted({
        key for row in rows for key in row
        if key == "utilization" or key.startswith("util_")
    })
    findings = []
    for column in columns:
        series = _series(rows, column)
        best: tuple[int, float, float] | None = None  # (length, start, end)
        run_start = None
        length = 0
        for t, value in series:
            if value >= SATURATION_LEVEL:
                if run_start is None:
                    run_start = t
                    length = 0
                length += 1
                if best is None or length > best[0]:
                    best = (length, run_start, t)
            else:
                run_start = None
        if best is not None and best[0] >= SATURATION_RUN:
            findings.append(Finding(
                severity="warn", kind="saturation",
                message=(f"{column} >= {SATURATION_LEVEL:g} for "
                         f"{best[0]} consecutive samples"),
                window_start_ms=best[1], window_end_ms=best[2],
            ))
    return findings


def _scan_shed_bursts(rows: Sequence[dict]) -> list[Finding]:
    """Intervals where a meaningful fraction of arrivals was shed."""
    series = _series(rows, "shed_rate")
    findings = []
    region = None
    peak = 0.0
    for t, value in series:
        if value >= SHED_BURST_LEVEL:
            if region is None:
                region = [t, t]
                peak = value
            else:
                region[1] = t
                peak = max(peak, value)
        elif region is not None:
            findings.append(Finding(
                severity="warn", kind="shed-burst",
                message=f"peak {peak * 100:.1f}% of arrivals shed",
                window_start_ms=region[0], window_end_ms=region[1],
            ))
            region = None
    if region is not None:
        findings.append(Finding(
            severity="warn", kind="shed-burst",
            message=f"peak {peak * 100:.1f}% of arrivals shed",
            window_start_ms=region[0], window_end_ms=region[1],
        ))
    return findings


def _scan_cache_collapse(rows: Sequence[dict]) -> list[Finding]:
    """A sustained hit-rate drop far below the warmed-up peak."""
    series = _series(rows, "hit_rate")
    peak = 0.0
    peak_t = 0.0
    for t, value in series:
        if value > peak:
            peak, peak_t = value, t
        elif peak >= CACHE_COLLAPSE_MIN_PEAK \
                and value < peak * CACHE_COLLAPSE_FRACTION:
            return [Finding(
                severity="warn", kind="cache-collapse",
                message=(f"hit rate fell to {value:.3f} from its "
                         f"{peak:.3f} peak"),
                window_start_ms=peak_t, window_end_ms=t,
            )]
    return []


def _scan_span_chains(events: Sequence[tuple],
                      dropped: int) -> list[Finding]:
    """Completed requests missing earlier phases despite zero drops."""
    findings = []
    if dropped > 0:
        return findings  # early spans legitimately overwritten
    phases: dict[int, set[str]] = {}
    for event in events:
        args = event[5]
        if isinstance(args, dict) and "req" in args:
            phases.setdefault(args["req"], set()).add(event[2])
    required = ("admit", "queue", "dispatch")
    broken = sorted(
        req for req, names in phases.items()
        if "complete" in names
        and any(name not in names for name in required)
    )
    if broken:
        findings.append(Finding(
            severity="fail", kind="span-gap",
            message=(f"{len(broken)} completed request(s) missing "
                     f"admit/queue/dispatch spans with zero drops "
                     f"(first: req {broken[0]})"),
        ))
    return findings


def build_health(metrics_rows: Sequence[dict], *,
                 horizon_ns: float | None = None,
                 objectives: Iterable[SloObjective] = (),
                 recorded: int = 0,
                 dropped: int = 0,
                 events: Sequence[tuple] = (),
                 run_row: dict | None = None,
                 windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
                 ) -> HealthReport:
    """Scan one run's telemetry into a :class:`HealthReport`.

    ``metrics_rows``/``events`` are the raw telemetry artifacts,
    ``objectives`` the monitors to burn-rate-evaluate, ``run_row`` the
    merged flat row (for run-scope objectives).  Verdict: any ``page``
    alert or ``fail`` finding fails the run; any ``warn`` demotes it
    to warn; otherwise it passes.
    """
    rows = list(metrics_rows)
    objectives = tuple(objectives)
    alerts = evaluate_objectives(rows, objectives, horizon_ns=horizon_ns,
                                 windows=windows, run_row=run_row)
    findings: list[Finding] = []
    columns = {key for row in rows for key in row}
    for objective in objectives:
        if objective.scope != "series" or objective.column in columns:
            continue
        if rows:
            severity = ("fail" if objective.source == "declared"
                        else "info")
            findings.append(Finding(
                severity=severity, kind="missing-column",
                message=(f"objective {objective.name!r} monitors "
                         f"column {objective.column!r}, which never "
                         f"appeared; sampled columns: "
                         f"{sorted(columns - {'t_ms'})}"),
            ))
    if not rows:
        findings.append(Finding(
            severity="info", kind="no-metrics",
            message=("no metrics series was sampled; declare "
                     "TelemetrySpec.metrics_interval_ns (or pass "
                     "--metrics-interval-ms) to enable SLO monitors"),
        ))
    findings.extend(_scan_saturation(rows))
    findings.extend(_scan_shed_bursts(rows))
    findings.extend(_scan_cache_collapse(rows))
    findings.extend(_scan_span_chains(events, dropped))
    if dropped > 0:
        findings.append(Finding(
            severity="warn", kind="span-loss",
            message=(f"{dropped} of {recorded} trace events fell out "
                     f"of the flight recorder; phase-chain analysis "
                     f"covers only the retained tail (raise "
                     f"TelemetrySpec.trace_capacity)"),
        ))
    verdict = "pass"
    if any(alert.severity == "page" for alert in alerts) \
            or any(f.severity == "fail" for f in findings):
        verdict = "fail"
    elif alerts or any(f.severity == "warn" for f in findings):
        verdict = "warn"
    findings.sort(key=lambda f: (-_SEVERITY_RANK[f.severity],
                                 f.window_start_ms or 0.0, f.kind))
    if horizon_ns is not None and horizon_ns > 0:
        horizon_ms = horizon_ns / 1e6
    else:
        horizon_ms = rows[-1].get("t_ms", 0.0) if rows else 0.0
    return HealthReport(
        verdict=verdict,
        findings=findings,
        alerts=alerts,
        objectives=objectives,
        samples=len(rows),
        spans_recorded=recorded,
        spans_dropped=dropped,
        horizon_ms=horizon_ms,
    )
