"""Byte-identity guards for the simulator hot-path rewrite.

The event kernel, the scheduler's cost-table fast path and the stats
vectorization are all rewrites of the timing source every subsystem
shares, so their correctness bar is not "close" but **identical**:

* the golden spec+seed run must produce byte-for-byte the same
  ``RunResult`` rows and exported Chrome trace as the pre-rewrite
  kernel (the files under ``tests/golden/`` were captured before the
  rewrite and are never regenerated casually — a diff here means the
  event interleaving or a float expression changed);
* a :class:`~repro.service.model.CostTable` must predict bit-identical
  ``ModeledCost`` values to the live model it wraps, for any size and
  ratio.

Regenerating the goldens is a deliberate act (a *semantic* change to
the simulation, not an optimisation): rerun the capture below against
the old kernel and commit the new files with the change that needs
them.
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.cluster import Cluster, TelemetrySpec, default_cluster_spec
from repro.errors import ServiceError
from repro.service.model import CostTable, DeviceCostModel, RatioAnchor

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The golden scenario: default mixed fleet, full telemetry, open-loop
#: 36 GB/s for 0.5 ms virtual, 4 tenants, seed 5 (a short cousin of the
#: trajectory benchmark's reference scenario).
GOLDEN_STREAM = dict(offered_gbps=36.0, duration_ns=5e5, tenants=4,
                     seed=5)


#: Heap entries the sanitized golden run pops: an exact, host-independent
#: count of kernel work that entries-per-request claims can cite.  It was
#: 2281 while the device pipeline, the QoS engine loops and the open-loop
#: arrivals ran as generator processes; turning them into callback chains
#: dropped the completion event each finished per-request process pushed
#: and nobody waited on (274 requests + 1 arrival process).  A change here
#: must be explained, never just re-pinned.
GOLDEN_KERNEL_ENTRIES = 2006


def _golden_cluster(sanitize: bool = False) -> Cluster:
    spec = dataclasses.replace(
        default_cluster_spec(),
        telemetry=TelemetrySpec(trace=True, metrics_interval_ns=1e5))
    cluster = Cluster.from_spec(spec, sanitize=sanitize)
    cluster.open_loop(**GOLDEN_STREAM)
    return cluster


def _golden_run():
    return _golden_cluster().run()


def _result_document(result) -> dict:
    service = result.service
    return {
        "row": result.row(),
        "clients": result.clients,
        "slo_breakdown": service.slo_breakdown,
        "breakdown": service.breakdown,
        "op_breakdown": service.op_breakdown,
        "per_device": service.per_device,
        "metrics_rows": result.telemetry.metrics_rows,
    }


class TestGoldenRun:
    def test_run_result_rows_byte_identical(self):
        result = _golden_run()
        rows = (json.dumps(_result_document(result), indent=2,
                           sort_keys=True) + "\n").encode()
        assert rows == (GOLDEN_DIR / "run_result.json").read_bytes(), (
            "golden RunResult rows changed: the kernel/scheduler/stats "
            "rewrite altered simulation semantics (event interleaving "
            "or float arithmetic), which a performance PR must not do"
        )

    def test_exported_trace_byte_identical(self, tmp_path):
        result = _golden_run()
        trace_path = tmp_path / "trace.json"
        result.export_trace(str(trace_path))
        assert trace_path.read_bytes() == \
            (GOLDEN_DIR / "trace.json").read_bytes(), (
                "golden trace export changed: span timestamps or "
                "ordering drifted across the kernel rewrite"
            )


    def test_sanitized_kernel_work_pinned(self):
        cluster = _golden_cluster(sanitize=True)
        result = cluster.run()
        rows = (json.dumps(_result_document(result), indent=2,
                           sort_keys=True) + "\n").encode()
        assert rows == (GOLDEN_DIR / "run_result.json").read_bytes()
        assert cluster.sim.entries_checked == GOLDEN_KERNEL_ENTRIES, (
            f"golden run popped {cluster.sim.entries_checked} heap "
            f"entries, expected {GOLDEN_KERNEL_ENTRIES}: the kernel work "
            f"per request changed"
        )


class TestCostTable:
    def _model(self):
        return DeviceCostModel(
            anchors=[
                RatioAnchor(ratio=0.3, overhead_ns=120.0, per_byte_ns=0.7),
                RatioAnchor(ratio=0.6, overhead_ns=260.0, per_byte_ns=1.3),
                RatioAnchor(ratio=1.0, overhead_ns=410.0, per_byte_ns=2.9),
            ],
            submit_ns=35.0,
            pre_overhead_ns=11.0, pre_per_byte_ns=0.002,
            post_overhead_ns=7.0, post_per_byte_ns=0.001,
        )

    def test_bit_identical_to_live_model(self):
        model = self._model()
        table = CostTable(model)
        rng = random.Random(3)
        cases = [(rng.randrange(1, 1 << 20), rng.uniform(0.0, 1.0))
                 for _ in range(300)]
        # Anchor boundaries and the clamped extremes, at a repeated
        # size so the row-cache hit path is exercised too.
        cases += [(16384, ratio)
                  for ratio in (0.0, 0.3, 0.45, 0.6, 0.8, 1.0)] * 2
        for nbytes, ratio in cases:
            expected = model.predict(nbytes, ratio)
            got = table.predict(nbytes, ratio)
            assert (got.submit_ns, got.pre_ns,
                    got.engine_ns, got.post_ns) == \
                   (expected.submit_ns, expected.pre_ns,
                    expected.engine_ns, expected.post_ns)

    def test_single_anchor_model(self):
        model = DeviceCostModel(
            anchors=[RatioAnchor(ratio=1.0, overhead_ns=50.0,
                                 per_byte_ns=0.5)],
            submit_ns=10.0,
        )
        table = CostTable(model)
        for ratio in (0.0, 0.5, 1.0):
            assert table.predict(4096, ratio) == model.predict(4096, ratio)

    def test_engine_floor_preserved(self):
        # The live model clamps engine time to >= 1 ns; the table must
        # apply the same floor after interpolation.
        model = DeviceCostModel(
            anchors=[RatioAnchor(ratio=1.0, overhead_ns=0.0,
                                 per_byte_ns=0.0)])
        assert CostTable(model).predict(100, 1.0).engine_ns == 1.0

    def test_invalid_size_rejected(self):
        table = CostTable(self._model())
        with pytest.raises(ServiceError):
            table.predict(0)
        with pytest.raises(ServiceError):
            table.predict(-5)

    def test_cluster_attaches_shared_tables(self):
        spec = default_cluster_spec()
        cluster = Cluster.from_spec(spec)
        devices = list(cluster.service.scheduler.devices)
        if cluster.service.scheduler.spill_device is not None:
            devices.append(cluster.service.scheduler.spill_device)
        assert all(device.cost_tables for device in devices)
        for device in devices:
            for op, table in device.cost_tables.items():
                # The table wraps exactly the model that would price
                # this op, so fast path and fallback agree.
                assert table.model is device.model_for(op)

    def test_derated_device_falls_back_to_live_model(self):
        from service_stubs import StubDevice, flat_model
        from repro.service.fleet import FleetDevice
        from repro.service.request import OffloadRequest
        from repro.sim.engine import Simulator

        sim = Simulator()
        model = flat_model(engine_per_byte_ns=0.01)
        device = FleetDevice(sim, StubDevice(name="stub"), model)
        device.cost_tables = {"compress": CostTable(model)}
        request = OffloadRequest(tenant=0, nbytes=4096, ratio=1.0)
        fast = device._predict(request)
        device.set_speed(0.5)
        device._cost_cache = None
        slow_path = device._predict(request)
        # Same numbers either way (predict() is derate-independent);
        # the point is the derated path stays on the live model.
        assert fast == slow_path
