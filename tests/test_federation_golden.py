"""Byte-identity guard for the federated trace.

``examples/federation.json`` is the only checked-in scenario that runs
with tracing on across several clusters: three members behind the
locality-affinity router, a 100k-tenant population and a diurnal
rate.  This file runs it at a short horizon and pins one digest of the
exported Chrome trace (``trace_json()``: every span, instant, metric
counter and alert), together with the flight recorder's ``recorded``
and ``dropped`` counts, and one digest of the merged and per-member
service reports (every per-tenant, per-op and per-SLO breakdown row).

A change to how the trace ring stores events, to the router or to any
serving layer that alters one event, timestamp or argument shows up
here.  Regenerating the digest is a semantic change and must be
explained with the change that needs it::

    PYTHONPATH=src python tests/test_federation_golden.py --regenerate
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.federation import Federation, FederationSpec

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "examples" / "federation.json"
GOLDEN_PATH = Path(__file__).parent / "golden" / "federation_trace.json"

#: Simulated horizon of the golden run: long enough for every member
#: and several metric samples to appear.
HORIZON_NS = 2e6

#: Ring capacities pinned: the spec's own (nothing falls out) and one
#: small enough that most of the run overflows the flight recorder.
CAPACITIES = {"spec": None, "ring-1024": 1024}


def federation_trace_record(capacity: int | None) -> dict:
    """Digest of the trace export plus the recorder's counts."""
    base = FederationSpec.from_json(SPEC_PATH.read_text(encoding="utf-8"))
    telemetry_spec = base.telemetry
    if capacity is not None:
        telemetry_spec = dataclasses.replace(telemetry_spec,
                                             trace_capacity=capacity)
    spec = dataclasses.replace(
        base, telemetry=telemetry_spec,
        workload=dataclasses.replace(base.workload,
                                     duration_ns=HORIZON_NS))
    result = Federation.from_spec(spec, sanitize=False).run()
    telemetry = result.run.telemetry
    reports = [result.run.service, *(report for _, report in result.members)]
    service = json.dumps([dataclasses.asdict(report) for report in reports],
                         sort_keys=True)
    return {
        "service_sha256": hashlib.sha256(service.encode()).hexdigest(),
        "trace_sha256": hashlib.sha256(
            telemetry.trace_json().encode()).hexdigest(),
        "recorded": telemetry.recorded,
        "dropped": telemetry.dropped,
        "events": len(telemetry.events),
    }


def compute_golden() -> dict:
    return {"horizon_ns": HORIZON_NS,
            **{name: federation_trace_record(capacity)
               for name, capacity in CAPACITIES.items()}}


@pytest.mark.parametrize("name", sorted(CAPACITIES))
def test_federation_trace_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["horizon_ns"] == HORIZON_NS
    actual = federation_trace_record(CAPACITIES[name])
    assert actual == golden[name], (
        "federated trace export or service reports changed: an event, "
        "timestamp, argument, breakdown row or the recorder's counts "
        "drifted"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=2, sort_keys=True)
        + "\n")
    print(f"wrote {GOLDEN_PATH}")
