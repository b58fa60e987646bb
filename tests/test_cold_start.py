"""A serving process never loads numpy or the lint package.

Sweeps and federations start one process per run, so every process
pays for what the serving stack imports.  The summaries in
``repro.sim.stats`` are stdlib only; this guard runs the entry packages,
a report past 4,096 samples and a long throughput series in a fresh
interpreter and checks that numpy stayed out of ``sys.modules``.  With
numpy not installed the check passes trivially, so CI also runs this
file once numpy is installed.

A session reads ``REPRO_SANITIZE`` through ``repro.analyzers``, whose
lint and rule modules must stay unloaded: only the sanitizer belongs in
a serving process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import sys

import repro.cluster
import repro.federation
import repro.sweep
from repro.cluster import Cluster, default_cluster_spec
from repro.sim.stats import TimeSeries

cluster = Cluster.from_spec(default_cluster_spec())
cluster.open_loop(offered_gbps=36.0, duration_ns=10e6, seed=1)
result = cluster.run()
series = TimeSeries(interval_ns=1e3)
series.record(0.0, 4096)
series.record(4099e3 - 1.0, 4096)
print(json.dumps({
    "completed": result.service.completed,
    "bins": len(series.series_mbps()),
    "cv_percent": series.cv_percent(),
    "numpy": sorted(name for name in sys.modules
                    if name.partition(".")[0] == "numpy"),
    "lint": sorted(name for name in sys.modules
                   if name in LINT_MODULES),
}))
"""

SANITIZED_SCRIPT = """
import json
import sys

from repro.cluster import Cluster, default_cluster_spec

cluster = Cluster.from_spec(default_cluster_spec())
print(json.dumps({
    "simulator": type(cluster.sim).__name__,
    "lint": sorted(name for name in sys.modules
                   if name in LINT_MODULES),
}))
"""

#: Modules only the lint CLI needs.
LINT_MODULES = ("repro.analyzers.lint", "repro.analyzers.rules")


def _run_fresh(script: str, **environ: str) -> dict:
    """The JSON object ``script`` prints last, run in a fresh
    interpreter with ``LINT_MODULES`` defined."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    source = f"LINT_MODULES = {LINT_MODULES!r}\n{script}"
    run = subprocess.run([sys.executable, "-c", source], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_serving_process_never_imports_numpy():
    outcome = _run_fresh(SCRIPT)
    assert outcome["completed"] >= 4096
    assert outcome["bins"] >= 4099
    assert outcome["cv_percent"] > 0
    assert outcome["numpy"] == []
    assert outcome["lint"] == []


def test_sanitize_env_still_builds_a_sanitized_simulator():
    outcome = _run_fresh(SANITIZED_SCRIPT, REPRO_SANITIZE="1")
    assert outcome["simulator"] == "SanitizedSimulator"
    assert outcome["lint"] == []
