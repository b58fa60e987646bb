"""``repro-lint``: the determinism & hot-path static-analysis pass.

The engine walks Python files, runs every registered rule
(:mod:`repro.analyzers.rules`) whose scope matches each file, honors
per-line suppression comments and renders findings as text or JSON.

Run it as ``repro-lint src/``, ``python -m repro.analyzers src/`` or
programmatically via :func:`lint_paths`.  Exit status: 0 clean, 1 any
active finding (including suppressions missing a reason), 2 usage
errors.

Suppressions
------------
A finding is silenced by a comment **on the flagged line**::

    tracks = {e[1] for e in events}  # repro-lint: disable=DET003 -- feeds sorted() two lines down

The ``-- reason`` part is mandatory: a suppression without a written
reason does not silence anything — it is reported as its own finding,
so the acceptance bar "zero unexplained suppressions" is enforced by
the tool itself.  Several codes can share one comment
(``disable=DET003,DET004``).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import AnalyzerError
from repro.analyzers.rules import RULES, Rule

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]

#: ``# repro-lint: disable=DET001,HOT001 -- reason`` (reason optional at
#: parse time; its absence becomes a finding).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+?)\s*(?:--\s*(.*\S))?\s*$"
)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Which rules apply where.  Paths are matched by repo-relative
    posix suffix: ``sim/engine.py`` matches any file ending in it, and
    a pattern ending in ``/`` matches every file under that directory.
    """

    #: Modules whose classes must be slotted (HOT001).
    hot_path_modules: tuple[str, ...] = (
        "sim/engine.py",
        "sim/stats.py",
        "service/scheduler.py",
        "service/fleet.py",
        "service/request.py",
        "telemetry/",
        "federation/router.py",
        "workloads/population.py",
    )
    #: Files allowed to read the host clock (DET001 skips them).
    wallclock_allowlist: tuple[str, ...] = (
        "telemetry/profiler.py",
        "benchmarks/",
    )
    #: Modules holding strict ``from_dict`` deserializers (SPEC001).
    spec_modules: tuple[str, ...] = (
        "speccodec.py",
        "cluster/spec.py",
        "sweep/spec.py",
        "telemetry/analysis.py",
        "federation/spec.py",
        "workloads/population.py",
    )
    #: Modules whose objects cross the SweepRunner pickle boundary
    #: (PKL001).
    pickle_modules: tuple[str, ...] = (
        "cluster/spec.py",
        "cluster/result.py",
        "sweep/",
        "telemetry/core.py",
        "telemetry/analysis.py",
        "federation/dispatch.py",
    )
    #: Rule codes to run; empty means every registered rule.
    select: tuple[str, ...] = ()

    @staticmethod
    def matches(relpath: str, patterns: Sequence[str]) -> bool:
        """Suffix/directory matching described in the class docstring."""
        path = "/" + relpath.replace("\\", "/").lstrip("/")
        for pattern in patterns:
            if pattern.endswith("/"):
                if f"/{pattern}" in path + "/" or path.startswith(
                        "/" + pattern):
                    return True
            elif path.endswith("/" + pattern):
                return True
        return False

    def active_rules(self) -> list[Rule]:
        if not self.select:
            return [RULES[code] for code in sorted(RULES)]
        unknown = sorted(set(self.select) - set(RULES))
        if unknown:
            raise AnalyzerError(
                f"unknown rule code(s) {unknown}; known: {sorted(RULES)}"
            )
        return [RULES[code] for code in sorted(self.select)]


DEFAULT_CONFIG = LintConfig()


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint finding, after suppression handling."""

    code: str
    path: str
    line: int
    col: int
    message: str
    #: True when a reasoned suppression comment silenced the finding.
    suppressed: bool = False
    suppression_reason: str | None = None

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _parse_suppressions(source: str) -> dict[int, tuple[set[str],
                                                        str | None]]:
    """``{line: (codes, reason)}`` for every suppression comment."""
    suppressions: dict[int, tuple[set[str], str | None]] = {}
    for index, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = {code.strip() for code in match.group(1).split(",")
                 if code.strip()}
        suppressions[index] = (codes, match.group(2))
    return suppressions


def lint_source(source: str, relpath: str,
                config: LintConfig = DEFAULT_CONFIG) -> list[Finding]:
    """Lint one module's source text; returns every finding, with
    suppressed ones carried (marked) so reporters can show them."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Finding(
            code="E999", path=relpath, line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            message=f"syntax error: {error.msg}",
        )]
    suppressions = _parse_suppressions(source)
    findings: list[Finding] = []
    for rule in config.active_rules():
        if rule.scope is not None and not rule.scope(relpath, config):
            continue
        for raw in rule.check(tree, relpath, config):
            suppression = suppressions.get(raw.line)
            if suppression is not None and rule.code in suppression[0]:
                codes, reason = suppression
                if reason:
                    findings.append(Finding(
                        code=rule.code, path=relpath, line=raw.line,
                        col=raw.col, message=raw.message,
                        suppressed=True, suppression_reason=reason,
                    ))
                    continue
                findings.append(Finding(
                    code=rule.code, path=relpath, line=raw.line,
                    col=raw.col,
                    message=(raw.message
                             + " [suppression ignored: missing "
                               "'-- reason']"),
                ))
                continue
            findings.append(Finding(
                code=rule.code, path=relpath, line=raw.line, col=raw.col,
                message=raw.message,
            ))
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def _python_files(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise AnalyzerError(f"no such file or directory: {entry}")
    return files


def _relpath(path: Path, root: Path | None) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(paths: Iterable[str],
               config: LintConfig = DEFAULT_CONFIG,
               root: str | Path | None = None) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    ``root`` anchors the repo-relative paths used for rule scoping and
    reporting; it defaults to the current working directory.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    findings: list[Finding] = []
    for path in _python_files(paths):
        source = path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, _relpath(path, root_path),
                                    config))
    return findings


# -- reporters -----------------------------------------------------------------


def render_text(findings: Sequence[Finding],
                show_suppressed: bool = False) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines: list[str] = []
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for finding in active:
        lines.append(f"{finding.location()}: {finding.code} "
                     f"{finding.message}")
    if show_suppressed:
        for finding in suppressed:
            lines.append(f"{finding.location()}: {finding.code} "
                         f"suppressed ({finding.suppression_reason}): "
                         f"{finding.message}")
    lines.append(
        f"repro-lint: {len(active)} finding(s), "
        f"{len(suppressed)} suppressed with reasons"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Deterministic JSON document (stable key order, sorted findings)."""
    document = {
        "findings": [f.to_dict() for f in findings if not f.suppressed],
        "suppressed": [f.to_dict() for f in findings if f.suppressed],
        "summary": {
            "active": sum(1 for f in findings if not f.suppressed),
            "suppressed": sum(1 for f in findings if f.suppressed),
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _rule_table() -> str:
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"{code}  {rule.name}: {rule.description}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & hot-path static analysis for the "
                    "repro codebase: wall-clock reads, global "
                    "randomness, unsorted set iteration, id()-ordering, "
                    "unslotted hot-path classes, lenient from_dict, "
                    "closures crossing the pickle boundary.",
        epilog="Suppress a finding on its line with "
               "'# repro-lint: disable=CODE -- reason' (the reason is "
               "mandatory). The runtime counterpart is the simulation "
               "sanitizer: repro-experiment cluster/report --sanitize, "
               "or REPRO_SANITIZE=1.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also list reasoned suppressions in the "
                             "text report")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--root", metavar="DIR",
                        help="repo root for relative paths and rule "
                             "scoping (default: cwd)")
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_rule_table())
        return 0
    config = DEFAULT_CONFIG
    if args.select:
        codes = tuple(code.strip() for code in args.select.split(",")
                      if code.strip())
        config = dataclasses.replace(config, select=codes)
    try:
        findings = lint_paths(args.paths or ["src"], config,
                              root=args.root)
    except (OSError, AnalyzerError) as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(render_json(findings))
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))
    return 1 if any(not f.suppressed for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
