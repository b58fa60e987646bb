"""Static analysis and runtime sanitization for the repro codebase.

Two complementary tools guard the determinism and hot-path contracts:

* :mod:`repro.analyzers.lint` — ``repro-lint``, an AST-based lint
  (``python -m repro.analyzers src/``) whose rules live in
  :mod:`repro.analyzers.rules`;
* :mod:`repro.analyzers.runtime` — :class:`SanitizedSimulator`, a
  drop-in :class:`~repro.sim.engine.Simulator` that validates engine
  invariants while preserving byte-identical results.

The lint exports load on first access (PEP 562), so a serving process
that only asks whether to sanitize never imports the lint or its rules.
"""

import importlib

from repro.analyzers.runtime import SanitizedSimulator, sanitize_from_env

#: Export name -> submodule it is loaded from on first access.
_LAZY = {
    "DEFAULT_CONFIG": "lint",
    "Finding": "lint",
    "LintConfig": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "main": "lint",
    "render_json": "lint",
    "render_text": "lint",
    "RULES": "rules",
    "RawFinding": "rules",
    "Rule": "rules",
}

__all__ = sorted([*_LAZY, "SanitizedSimulator", "sanitize_from_env"])


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
