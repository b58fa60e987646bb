"""Byte-identity guards for the simulator hot-path rewrite.

The event kernel, the cost model's per-size prediction memo and the
stats vectorization are all rewrites of the timing source every
subsystem shares, so their correctness bar is not "close" but
**identical**:

* the golden spec+seed run must produce byte-for-byte the same
  ``RunResult`` rows and exported Chrome trace as the pre-rewrite
  kernel (the files under ``tests/golden/`` were captured before the
  rewrite and are never regenerated casually — a diff here means the
  event interleaving or a float expression changed);
* a memoized :meth:`~repro.service.model.DeviceCostModel.predict` must
  return bit-identical ``ModeledCost`` values to the unmemoized
  arithmetic, cold or warm, for any size and ratio.

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

from repro.cluster import (
    Cluster,
    DeviceSpec,
    StoreSpec,
    TelemetrySpec,
    default_cluster_spec,
)
from repro.errors import ServiceError
from repro.service.model import DeviceCostModel, ModeledCost, RatioAnchor

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
#: and nobody waited on (274 requests + 1 arrival process).  It fell
#: from 2006 to 2005 when the metrics sampler became a callback chain:
#: its ticks and bootstrap hop keep their entries, and only the
#: completion event the finished sampler process pushed is gone.  It
#: fell from 2005 to 2000 when the fleet's doorbell queue became a deque
#: with an idle state: each of the 5 fleet members (4 devices and the
#: CPU spill) no longer pushes the bootstrap hop that parked its first
#: doorbell waiter; every ring is pushed where the waiter's event was.
#: A change here must be explained, never just re-pinned.
GOLDEN_KERNEL_ENTRIES = 2000


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


#: The store golden scenario: the default mixed fleet with a block-store
#: tier, a 64-block cache over a 1024-block scrambled-Zipf key space, 16
#: closed-loop connections thinking 1 us, and a fleet queue limit of 3,
#: for 0.3 ms virtual.  Hits, misses, coalesced reads, PUTs and dropped
#: GETs and PUTs (retried after the backoff) all occur.
STORE_GOLDEN_STREAM = dict(offered_gbps=1.0, duration_ns=3e5,
                           read_fraction=0.7, blocks=1024, seed=11)

#: Heap entries the sanitized store golden run pops: an exact,
#: host-independent count of kernel work.  The goldens were captured
#: while the store's hit and miss paths and the closed-loop connections
#: ran as generator processes, when the run popped 1372 entries.
#: Turning them into callback chains dropped only the completion event
#: each finished process pushed and nothing waited on: one per hit or
#: miss served (127 of the 131 GETs; the other 4 coalesced) and one per
#: connection (16).  It fell from 1229 to 1228 when the metrics sampler
#: became a callback chain and stopped pushing its own completion event.
#: It fell from 1228 to 1223 when the doorbell queue lost its bootstrap
#: hop, one per fleet member (4 devices and the CPU spill).
#: A change here must be explained, never just re-pinned.
STORE_GOLDEN_KERNEL_ENTRIES = 1223


def _store_golden_cluster(sanitize: bool = False) -> Cluster:
    base = default_cluster_spec(store=True)
    spec = dataclasses.replace(
        base,
        fleet=dataclasses.replace(base.fleet, queue_limit=3),
        store=StoreSpec(cache_blocks=64, client_window=16,
                        client_think_ns=1000.0),
        telemetry=TelemetrySpec(trace=True, metrics_interval_ns=1e5))
    cluster = Cluster.from_spec(spec, sanitize=sanitize)
    cluster.store_client(**STORE_GOLDEN_STREAM)
    return cluster


def _store_document(result) -> dict:
    store = dataclasses.asdict(result.store)
    del store["service"]
    document = _result_document(result)
    document["store"] = store
    return document


def _store_rows(result) -> bytes:
    return (json.dumps(_store_document(result), indent=2,
                       sort_keys=True) + "\n").encode()


class TestStoreGoldenRun:
    """The closed-loop block-store path, pinned byte for byte."""

    def test_scenario_covers_every_store_path(self):
        store = _store_golden_cluster().run().store
        assert 0.0 < store.hit_rate < 1.0
        assert store.coalesced_reads > 0
        assert store.writes > 0
        assert store.failed_reads > 0 and store.failed_writes > 0

    def test_run_result_rows_byte_identical(self):
        rows = _store_rows(_store_golden_cluster().run())
        assert rows == (GOLDEN_DIR / "store_run_result.json").read_bytes(), (
            "store golden rows changed: the store or closed-loop client "
            "timing moved"
        )

    def test_exported_trace_byte_identical(self, tmp_path):
        result = _store_golden_cluster().run()
        trace_path = tmp_path / "trace.json"
        result.export_trace(str(trace_path))
        assert trace_path.read_bytes() == \
            (GOLDEN_DIR / "store_trace.json").read_bytes(), (
                "store golden trace changed: span timestamps or ordering "
                "drifted"
            )

    def test_sanitized_kernel_work_pinned(self):
        cluster = _store_golden_cluster(sanitize=True)
        rows = _store_rows(cluster.run())
        assert rows == (GOLDEN_DIR / "store_run_result.json").read_bytes()
        assert cluster.sim.entries_checked == STORE_GOLDEN_KERNEL_ENTRIES, (
            f"store golden run popped {cluster.sim.entries_checked} heap "
            f"entries, expected {STORE_GOLDEN_KERNEL_ENTRIES}"
        )


def _reference_predict(model: DeviceCostModel, nbytes: int,
                       ratio: float) -> ModeledCost:
    """The unmemoized prediction: per-anchor linear fits interpolated in
    ratio, recomputed on every call."""
    def engine_ns(anchor: RatioAnchor) -> float:
        return anchor.overhead_ns + anchor.per_byte_ns * nbytes

    anchors = model.anchors
    if ratio <= anchors[0].ratio:
        engine = engine_ns(anchors[0])
    elif ratio >= anchors[-1].ratio:
        engine = engine_ns(anchors[-1])
    else:
        engine = engine_ns(anchors[-1])
        for low, high in zip(anchors, anchors[1:]):
            if low.ratio <= ratio <= high.ratio:
                span = high.ratio - low.ratio
                weight = (ratio - low.ratio) / span if span > 0 else 0.0
                engine = (engine_ns(low) * (1 - weight)
                          + engine_ns(high) * weight)
                break
    return ModeledCost(
        submit_ns=max(model.submit_ns, 0.0),
        pre_ns=max(model.pre_overhead_ns
                   + model.pre_per_byte_ns * nbytes, 0.0),
        engine_ns=max(engine, 1.0),
        post_ns=max(model.post_overhead_ns
                    + model.post_per_byte_ns * nbytes, 0.0),
    )


class TestCostModelMemo:
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

    def test_bit_identical_to_reference_predict(self):
        model = self._model()
        rng = random.Random(3)
        cases = [(rng.randrange(1, 1 << 20), rng.uniform(0.0, 1.0))
                 for _ in range(300)]
        # Anchor boundaries and the clamped extremes, at a repeated
        # size so the memo hit path is exercised too.
        cases += [(16384, ratio)
                  for ratio in (0.0, 0.3, 0.45, 0.6, 0.8, 1.0)] * 2
        for nbytes, ratio in cases:
            expected = _reference_predict(model, nbytes, ratio)
            cold = nbytes not in model._rows
            got = model.predict(nbytes, ratio)
            warm = model.predict(nbytes, ratio)
            assert nbytes in model._rows
            for cost in (got, warm):
                assert (cost.submit_ns, cost.pre_ns,
                        cost.engine_ns, cost.post_ns) == \
                       (expected.submit_ns, expected.pre_ns,
                        expected.engine_ns, expected.post_ns), (
                    nbytes, ratio, cold)

    def test_single_anchor_model(self):
        model = DeviceCostModel(
            anchors=[RatioAnchor(ratio=1.0, overhead_ns=50.0,
                                 per_byte_ns=0.5)],
            submit_ns=10.0,
        )
        for ratio in (0.0, 0.5, 1.0):
            assert model.predict(4096, ratio) == \
                _reference_predict(model, 4096, ratio)

    def test_engine_floor_preserved(self):
        # Engine time clamps to >= 1 ns after interpolation, cold and
        # warm.
        model = DeviceCostModel(
            anchors=[RatioAnchor(ratio=1.0, overhead_ns=0.0,
                                 per_byte_ns=0.0)])
        assert model.predict(100, 1.0).engine_ns == 1.0
        assert model.predict(100, 1.0).engine_ns == 1.0

    def test_invalid_size_rejected(self):
        model = self._model()
        for _ in range(2):  # cold, then after a failed (unmemoized) call
            with pytest.raises(ServiceError):
                model.predict(0)
            with pytest.raises(ServiceError):
                model.predict(-5)
        model.predict(4096)  # warm the memo with a valid size
        with pytest.raises(ServiceError):
            model.predict(0)
        with pytest.raises(ServiceError):
            model.predict(-5)
        assert set(model._rows) == {4096}

    def test_spec_fleet_shares_one_model_per_op(self):
        spec = dataclasses.replace(
            default_cluster_spec(),
            fleet=dataclasses.replace(
                default_cluster_spec().fleet,
                devices=(DeviceSpec("qat4xxx", name="a"),
                         DeviceSpec("qat4xxx", name="b")),
                ops=("compress", "decompress")))
        cluster = Cluster.from_spec(spec)
        first, second = cluster.scheduler.devices
        for op in ("compress", "decompress"):
            assert first.model_for(op) is second.model_for(op)
            assert first.models[op] is second.models[op]

    def test_derated_device_predicts_nominal_cost(self):
        from service_stubs import StubDevice, flat_model
        from repro.service.fleet import FleetDevice
        from repro.service.request import OffloadRequest
        from repro.sim.engine import Simulator

        sim = Simulator()
        model = flat_model(engine_per_byte_ns=0.01, submit_ns=5.0,
                           pre_ns=3.0, post_ns=2.0)
        device = FleetDevice(sim, StubDevice(name="stub"), model)
        request = OffloadRequest(tenant=0, nbytes=4096, ratio=1.0)
        nominal = device._predict(request)
        healthy = device.estimate_response_ns(request)
        device.set_speed(0.5)
        device._cost_cache = None
        derated = device._predict(request)
        # The prediction is derate-independent ...
        assert derated == nominal == model.predict(4096, 1.0)
        # ... and the estimate scales only the engine terms.
        assert device.estimate_response_ns(request) == \
            nominal.engine_ns / 0.5 + nominal.submit_ns \
            + nominal.pre_ns + nominal.post_ns
        assert device.estimate_response_ns(request) - healthy == \
            pytest.approx(nominal.engine_ns)
