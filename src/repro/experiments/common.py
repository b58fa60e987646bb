"""Experiment harness shared infrastructure.

Every paper figure/table maps to one module exposing
``run(quick=True) -> ExperimentResult``.  ``quick`` scales the workload
so the full suite executes in CI time; the shapes (orderings,
crossovers, degradation slopes) are preserved at either scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.profiling.report import format_table


@dataclass
class ExperimentResult:
    """Rows reproducing one paper artifact."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def table(self, floatfmt: str = ".2f") -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        body = format_table(self.rows, floatfmt=floatfmt)
        tail = f"\n{self.notes}" if self.notes else ""
        return f"{header}\n{body}{tail}"

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]

    def rows_where(self, **conditions: Any) -> list[dict[str, Any]]:
        return [
            row for row in self.rows
            if all(row.get(key) == value for key, value in conditions.items())
        ]

    def value(self, column: str, **conditions: Any) -> Any:
        matches = self.rows_where(**conditions)
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} rows match {conditions} in "
                f"{self.experiment_id}"
            )
        return matches[0][column]

    # -- export (same flat-row formats as repro.sweep.SweepResult) -------------

    def to_csv(self, path: str | None = None) -> str:
        """The rows as CSV; also written to ``path`` if given."""
        from repro.sweep.result import rows_to_csv
        text = rows_to_csv(self.rows)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_json(self, path: str | None = None,
                indent: int | None = 2) -> str:
        """The result as a JSON document; also written if ``path``."""
        import json
        text = json.dumps({
            "experiment": self.experiment_id,
            "title": self.title,
            "notes": self.notes,
            "rows": self.rows,
        }, indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text


#: Registry populated by :mod:`repro.experiments` at import time.
REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def register(name: str):
    """Decorator adding a run() callable to the registry."""
    def decorate(fn: Callable[..., ExperimentResult]):
        REGISTRY[name] = fn
        return fn
    return decorate
