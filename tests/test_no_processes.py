"""The package runs on kernel callbacks alone: no generator processes.

The control plane (scheduled reconfiguration, drain and yank unplugs),
the metrics sampler shared by clusters and federations, and the
multi-tenant SR-IOV tenants are chains of ``call_later`` hops.  These
tests make building a :class:`~repro.sim.engine.Process` raise and run
each of them; the pinned numbers are the ones the generator versions
produced, so the conversion kept every timestamp and tie-break.
"""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cluster import (
    Cluster,
    ReconfigEvent,
    TelemetrySpec,
    default_cluster_spec,
)
from repro.devices.sriov import dpcsd_vf_config, qat8970_vf_config
from repro.federation import Federation, FederationSpec
from repro.sim.engine import Process
from repro.virt.tenancy import (
    DeviceServiceModel,
    MultiTenantSim,
    csd_tenant_profile,
    qat_tenant_profile,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def init(self, sim, generator):
        generator.close()
        raise AssertionError("a generator process was built")
    monkeypatch.setattr(Process, "__init__", init)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_reconfiguration_schedule_and_sampler():
    spec = dataclasses.replace(
        default_cluster_spec(),
        telemetry=TelemetrySpec(metrics_interval_ns=5e4),
        reconfig=(
            ReconfigEvent(1e5, "brown-out", "qat8970", speed_factor=0.25),
            ReconfigEvent(1.5e5, "unplug", "dpzip", drain=True),
            ReconfigEvent(2e5, "restore", "qat8970"),
            ReconfigEvent(2.5e5, "unplug", "qat4xxx", drain=False),
        ))
    cluster = Cluster.from_spec(spec)
    cluster.open_loop(offered_gbps=36.0, duration_ns=4e5, tenants=4, seed=5)
    result = cluster.run()
    assert cluster.controller.events == [
        (100000.0, "brown-out", "qat8970", "speed=0.25"),
        (150000.0, "unplug", "dpzip", "drain"),
        # The drain finishes at a DRAIN_POLL_NS poll, the yanked device
        # once the work past its doorbell completes.
        (188000.0, "offline", "dpzip", ""),
        (200000.0, "brown-out", "qat8970", "speed=1"),
        (250000.0, "unplug", "qat4xxx", "yank"),
        (250000.0, "migrate", "qat4xxx", "1 requests"),
        (560000.0, "offline", "qat4xxx", ""),
    ]
    metrics_rows = result.telemetry.metrics_rows
    # One sample per 50 us interval up to the 400 us horizon.
    assert [row["t_ms"] for row in metrics_rows] == [
        tick * 5e4 / 1e6 for tick in range(1, 9)]
    assert (result.service.completed, result.service.migrated) == (207, 1)
    assert digest([dataclasses.asdict(result.service),
                   metrics_rows]) == "56b94acb0f29c2db"


def test_federation_sampler():
    base = FederationSpec.from_json(
        (ROOT / "examples" / "federation.json").read_text(encoding="utf-8"))
    spec = dataclasses.replace(
        base, workload=dataclasses.replace(base.workload, duration_ns=5e5))
    result = Federation.from_spec(spec).run()
    metrics_rows = result.run.telemetry.metrics_rows
    assert len(metrics_rows) == 10
    assert result.run.service.completed == 165
    assert digest([result.row(), metrics_rows]) == "7245c6f2b80b191d"


@pytest.mark.parametrize("config, service, profile, expected", [
    (qat8970_vf_config(6), DeviceServiceModel(3.37, 1160.0),
     qat_tenant_profile(), ("df0cab690c781e2b", 20.911856198837615)),
    (dpcsd_vf_config(6), DeviceServiceModel(2.05, 2000.0),
     csd_tenant_profile(), ("a2376d8c6a472f78", 0.16665367587062707)),
], ids=["fcfs", "fair"])
def test_multi_tenant_arbiters(config, service, profile, expected):
    result = MultiTenantSim(config, service, profile,
                            seed=7).run(duration_s=8)
    assert (digest(result.per_vm_series),
            result.avg_cv_percent) == expected


#: Calls that would build a kernel waiter object: the deleted
#: ``Simulator.spawn``/``timeout``/``event``, ``all_of``, and the
#: ``Event``/``Process``/``Store`` constructors (``threading.Event()``
#: and ``context.Process(...)`` are attribute calls, so they do not
#: match).
_PROCESS_API = re.compile(r"sim\.(spawn|timeout|event)\(|all_of\("
                          r"|(?<![.\w])(Event|Process|Store)\(")


def test_no_module_uses_the_process_api():
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "sim" / "engine.py":
            continue  # defines Event and Process for the tracer
        text = path.read_text(encoding="utf-8")
        match = _PROCESS_API.search(text)
        assert match is None, f"{path.relative_to(SRC)}: {match.group()}"
