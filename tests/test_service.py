"""Offload-service tests: policies, batching, backpressure, admission.

All timing comes from synthetic :class:`DeviceCostModel` instances on
stub devices, so every scenario is deterministic and wall-clock free;
one integration test calibrates the real mixed fleet.
"""

import pytest

from service_stubs import StubDevice, flat_model, make_fleet, parts_cluster
from repro.cluster import Cluster, build_device, default_cluster_spec
from repro.cluster import session as cluster_session
from repro.errors import ServiceError
from repro.hw.engine import Placement
from repro.service import (
    AdmissionController,
    AdmissionDecision,
    Batcher,
    DeviceCostModel,
    FleetDevice,
    OffloadRequest,
    OffloadService,
    OpenLoopStream,
    RatioAnchor,
    StaticPinning,
    calibrated_ops,
    default_fleet,
    make_policy,
)
from repro.sim.engine import Simulator


def request(tenant=0, nbytes=1000, ratio=1.0):
    return OffloadRequest(tenant=tenant, nbytes=nbytes, ratio=ratio)


class TestCostModel:
    def test_linear_engine_prediction(self):
        model = flat_model(engine_per_byte_ns=0.5, submit_ns=10.0,
                           pre_ns=5.0, post_ns=3.0)
        cost = model.predict(100, ratio=1.0)
        assert cost.engine_ns == pytest.approx(50.0)
        assert cost.total_ns == pytest.approx(68.0)

    def test_ratio_interpolation_and_clamping(self):
        model = DeviceCostModel(anchors=[
            RatioAnchor(ratio=0.4, overhead_ns=0.0, per_byte_ns=1.0),
            RatioAnchor(ratio=1.0, overhead_ns=0.0, per_byte_ns=3.0),
        ])
        assert model.predict(100, 0.4).engine_ns == pytest.approx(100.0)
        assert model.predict(100, 0.7).engine_ns == pytest.approx(200.0)
        assert model.predict(100, 1.0).engine_ns == pytest.approx(300.0)
        # Outside the anchor span clamps to the nearest anchor.
        assert model.predict(100, 0.0).engine_ns == pytest.approx(100.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ServiceError):
            DeviceCostModel(anchors=[])
        with pytest.raises(ServiceError):
            flat_model().predict(0)

    def test_calibrate_real_device_orders_by_size(self):
        from repro.hw.qat import Qat4xxx
        model = DeviceCostModel.calibrate(Qat4xxx())["compress"]
        small = model.predict(4096, 0.5)
        large = model.predict(65536, 0.5)
        assert large.engine_ns > small.engine_ns
        assert model.predict(4096, 1.0).engine_ns > small.engine_ns


def _model_fields(model):
    return (model.anchors, model.submit_ns,
            model.pre_overhead_ns, model.pre_per_byte_ns,
            model.post_overhead_ns, model.post_per_byte_ns)


class TestOnePassCalibration:
    """One measurement pass fits each op exactly as calibrating it alone."""

    @pytest.fixture(scope="class")
    def store_fleet(self):
        fleet = default_cluster_spec(store=True).fleet
        return [*fleet.devices, fleet.spill]

    def test_joint_pass_equals_per_op_passes(self, store_fleet):
        assert any(spec.kind == "cpu" and spec.algorithm == "snappy"
                   for spec in store_fleet)
        for spec in store_fleet:
            device = build_device(spec)
            joint = DeviceCostModel.calibrate(
                device, ops=("compress", "decompress"))
            assert list(joint) == ["compress", "decompress"]
            for op in joint:
                alone = DeviceCostModel.calibrate(device, ops=(op,))
                assert list(alone) == [op]
                assert _model_fields(joint[op]) == \
                    _model_fields(alone[op]), (device.name, op)

    def test_unknown_or_empty_ops_rejected(self):
        from repro.hw.qat import Qat4xxx
        with pytest.raises(ServiceError, match="cannot calibrate"):
            DeviceCostModel.calibrate(Qat4xxx(), ops=())
        with pytest.raises(ServiceError, match="cannot calibrate"):
            DeviceCostModel.calibrate(Qat4xxx(), ops=("compres",))

    def test_cluster_cache_calibrates_only_missing_ops(self, monkeypatch):
        monkeypatch.setattr(cluster_session, "_MODEL_CACHE", {})
        passes = []
        real = DeviceCostModel.calibrate.__func__

        def recording(cls, device, ops=("compress",), **kwargs):
            passes.append((device.name, tuple(ops)))
            return real(cls, device, ops=ops, **kwargs)

        monkeypatch.setattr(DeviceCostModel, "calibrate",
                            classmethod(recording))
        first, second = default_cluster_spec(store=True).fleet.devices[:2]
        device = build_device(first)
        compress = cluster_session.calibrated_models(
            first, device, ("compress",))
        both = cluster_session.calibrated_models(
            first, device, ("compress", "decompress"))
        again = cluster_session.calibrated_models(
            first, device, ("decompress", "compress"))
        other = build_device(second)
        cluster_session.calibrated_models(
            second, other, ("compress", "decompress"))
        assert passes == [(device.name, ("compress",)),
                          (device.name, ("decompress",)),
                          (other.name, ("compress", "decompress"))]
        assert both["compress"] is compress["compress"]
        assert again == both


class TestDecompressCalibration:
    """Decompress calibration across the whole default fleet."""

    @pytest.fixture(scope="class")
    def models(self):
        return [(device, models) for device, models in calibrated_ops(
            default_fleet())]

    def test_covers_every_placement(self, models):
        placements = {device.placement.value for device, _ in models}
        assert placements == {"cpu", "peripheral", "on-chip", "in-storage"}

    def test_decompress_fits_are_size_monotone(self, models):
        for device, per_op in models:
            decomp = per_op["decompress"]
            small = decomp.predict(4096, 0.5)
            large = decomp.predict(65536, 0.5)
            assert small.engine_ns > 0, device.name
            assert large.engine_ns > small.engine_ns, device.name
            assert large.total_ns > small.total_ns, device.name

    def test_decompress_priced_differently_from_compress(self, models):
        # The whole point of per-op models: each device's decompress
        # budget disagrees with its compress budget, so routing on the
        # compress model would mis-place read traffic.
        for device, per_op in models:
            comp = per_op["compress"].predict(65536, 0.5).total_ns
            decomp = per_op["decompress"].predict(65536, 0.5).total_ns
            assert abs(comp - decomp) / comp > 0.10, device.name


class TestMixedOpService:
    def _decomp_request(self, nbytes=1000, ratio=1.0):
        return OffloadRequest(tenant=0, nbytes=nbytes, ratio=ratio,
                              op="decompress")

    def test_decompress_priced_by_decompress_model(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(), {
            "compress": flat_model(engine_per_byte_ns=1.0),
            "decompress": flat_model(engine_per_byte_ns=0.01),
        })
        assert device.estimate_response_ns(
            self._decomp_request()) == pytest.approx(10.0)
        assert device.estimate_response_ns(request()) == pytest.approx(1000.0)

    def test_missing_decompress_model_fails_loudly(self):
        # A compress-only model triggers lazy decompress calibration;
        # on a stub with no functional datapath that must raise, never
        # silently fall back to the compress pricing.
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(), flat_model())
        with pytest.raises(NotImplementedError):
            device.estimate_response_ns(self._decomp_request())

    def test_cost_model_routes_ops_to_different_devices(self):
        sim = Simulator()
        comp_fast = FleetDevice(sim, StubDevice(name="comp-fast"), {
            "compress": flat_model(0.01), "decompress": flat_model(0.1)})
        decomp_fast = FleetDevice(sim, StubDevice(name="decomp-fast"), {
            "compress": flat_model(0.1), "decompress": flat_model(0.01)})
        policy = make_policy("cost-model")
        fleet = [comp_fast, decomp_fast]
        assert policy.select(request(), fleet) is comp_fast
        assert policy.select(self._decomp_request(), fleet) is decomp_fast

    def test_mixed_op_run_reports_per_op_breakdown(self):
        sim = Simulator()
        # Enough engines that latency reflects service time, not
        # queueing behind the interleaved other-op requests.
        fleet = [FleetDevice(sim, StubDevice(engines=10), {
            "compress": flat_model(0.1), "decompress": flat_model(0.01)})]
        service = OffloadService(sim, fleet, policy="cost-model")
        for index in range(10):
            if index % 2:
                service.submit(self._decomp_request())
            else:
                service.submit(request())
        sim.run()
        rows = {row["op"]: row for row in service.report().op_breakdown}
        assert set(rows) == {"compress", "decompress"}
        assert rows["compress"]["count"] == 5
        assert rows["decompress"]["count"] == 5
        # Decompress is 10x cheaper on this stub, and the report shows it.
        assert rows["decompress"]["p50_us"] < rows["compress"]["p50_us"]

    def test_placement_shares_sum_to_one(self):
        sim = Simulator()
        fleet = make_fleet(sim)
        service = OffloadService(sim, fleet, policy="round-robin")
        for _ in range(8):
            service.submit(request())
        sim.run()
        shares = service.report().placement_shares("compress")
        assert sum(shares.values()) == pytest.approx(1.0)
        assert service.report().placement_shares("decompress") == {}


class TestPolicies:
    def test_static_pinning_maps_tenant_to_device(self):
        sim = Simulator()
        fleet = make_fleet(sim)
        policy = make_policy("static")
        assert policy.select(request(tenant=0), fleet) is fleet[0]
        assert policy.select(request(tenant=1), fleet) is fleet[1]
        assert policy.select(request(tenant=2), fleet) is fleet[0]

    def test_round_robin_cycles(self):
        sim = Simulator()
        fleet = make_fleet(sim)
        policy = make_policy("round-robin")
        picks = [policy.select(request(), fleet) for _ in range(4)]
        assert picks == [fleet[0], fleet[1], fleet[0], fleet[1]]

    def test_shortest_queue_prefers_idle_device(self):
        sim = Simulator()
        fleet = make_fleet(sim)
        fleet[0].enqueue(request())
        fleet[0].enqueue(request())
        policy = make_policy("shortest-queue")
        assert policy.select(request(), fleet) is fleet[1]

    def test_cost_model_prefers_fast_device(self):
        sim = Simulator()
        fleet = make_fleet(sim, per_byte=(0.01, 0.1))
        policy = make_policy("cost-model")
        assert policy.select(request(), fleet) is fleet[0]

    def test_cost_model_reroutes_under_backlog(self):
        sim = Simulator()
        fleet = make_fleet(sim, per_byte=(0.01, 0.1))
        fleet[0].backlog_ns = 1e9  # fast device deeply backlogged
        policy = make_policy("cost-model")
        assert policy.select(request(), fleet) is fleet[1]

    def test_cost_model_declines_when_fleet_full(self):
        sim = Simulator()
        fleet = make_fleet(sim, queue_limit=1)
        for device in fleet:
            device.enqueue(request())
        assert make_policy("cost-model").select(request(), fleet) is None

    def test_static_pinning_explicit_mapping_honored(self):
        sim = Simulator()
        fleet = make_fleet(sim)
        policy = StaticPinning(mapping={7: 1, 9: 0})
        assert policy.select(request(tenant=7), fleet) is fleet[1]
        assert policy.select(request(tenant=9), fleet) is fleet[0]

    def test_static_pinning_rejects_unmapped_tenant(self):
        # An explicit mapping must not silently fall back to the
        # modulo default for tenants it never mentions.
        sim = Simulator()
        fleet = make_fleet(sim)
        policy = StaticPinning(mapping={7: 1})
        with pytest.raises(ServiceError, match="tenant 3"):
            policy.select(request(tenant=3), fleet)

    def test_static_pinning_rejects_out_of_range_index(self):
        # After an unplug shrinks the online fleet, a stale index must
        # raise rather than silently wrap onto an arbitrary survivor.
        sim = Simulator()
        fleet = make_fleet(sim)
        policy = StaticPinning(mapping={0: 5})
        with pytest.raises(ServiceError, match="index 5"):
            policy.select(request(tenant=0), fleet)

    def test_static_pinning_by_device_name(self):
        # Name pins survive fleet reconfiguration; a pinned device
        # that is not online declines instead of re-pinning.
        sim = Simulator()
        fleet = make_fleet(sim)
        policy = StaticPinning(mapping={0: "dev1"})
        assert policy.select(request(tenant=0), fleet) is fleet[1]
        assert policy.select(request(tenant=0), fleet[:1]) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            make_policy("coin-flip")
        # The lookup error doubles as a ValueError and names every
        # valid policy string.
        assert isinstance(excinfo.value, ValueError)
        message = str(excinfo.value)
        for name in ("static", "round-robin", "shortest-queue",
                     "cost-model", "deadline"):
            assert name in message


class TestBatching:
    def test_flush_on_size(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, batch_size=4, timeout_ns=1e6,
                          flush=flushed.append)
        for i in range(4):
            batcher.add(i)
        assert flushed == [[0, 1, 2, 3]]  # no simulation time needed
        assert batcher.pending == 0

    def test_flush_on_timeout(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, batch_size=8, timeout_ns=1000.0,
                          flush=lambda b: flushed.append((sim.now, b)))
        batcher.add("a")
        batcher.add("b")
        sim.run()
        assert flushed == [(1000.0, ["a", "b"])]

    def test_size_flush_voids_pending_timer(self):
        sim = Simulator()
        flushed = []
        batcher = Batcher(sim, batch_size=2, timeout_ns=1000.0,
                          flush=flushed.append)
        batcher.add("a")
        batcher.add("b")   # size flush at t=0
        batcher.add("c")   # second batch, fresh timer
        sim.run()
        assert flushed == [["a", "b"], ["c"]]

    def test_batch_amortizes_doorbell(self):
        """One doorbell per batch: 4 batched requests finish sooner
        than 4 singleton submissions of the same work."""
        def total_time(batch_size):
            sim = Simulator()
            device = FleetDevice(
                sim, StubDevice(engines=4),
                flat_model(engine_per_byte_ns=0.01, submit_ns=500.0),
                batch_size=batch_size, batch_timeout_ns=None)
            for _ in range(4):
                device.enqueue(request())
            device.batcher.flush_now()
            sim.run()
            assert device.completed == 4
            assert device.batches_submitted == (1 if batch_size >= 4 else 4)
            return sim.now

        assert total_time(batch_size=4) < total_time(batch_size=1)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ServiceError):
            Batcher(sim, batch_size=0, timeout_ns=None, flush=lambda b: b)
        with pytest.raises(ServiceError):
            Batcher(sim, batch_size=1, timeout_ns=-1.0, flush=lambda b: b)


class TestDataPlaneChain:
    """Exact completion times through the device's callback pipeline
    (doorbell → pre → engine → post), one branch per case."""

    def _completions(self, sim, device, requests):
        done = []
        for req in requests:
            device.enqueue(req, on_complete=lambda r, dev, cost:
                           done.append((r.tenant, sim.now)))
        device.batcher.flush_now()
        sim.run()
        assert device.inflight == 0
        assert device.backlog_ns == 0.0
        return done

    @pytest.mark.parametrize("pre_ns, post_ns", [(0.0, 0.0), (5.0, 3.0)])
    def test_pre_and_post_stages(self, pre_ns, post_ns):
        # Serial doorbell (100 ns each), 10 ns of engine per request;
        # zero-cost pre/post stages must add no time and no hop.
        sim = Simulator()
        device = FleetDevice(
            sim, StubDevice(),
            flat_model(engine_per_byte_ns=0.01, submit_ns=100.0,
                       pre_ns=pre_ns, post_ns=post_ns),
            batch_size=1, batch_timeout_ns=None)
        done = self._completions(sim, device, [request(tenant=0),
                                               request(tenant=1)])
        stages = pre_ns + 10.0 + post_ns
        assert done == [(0, 100.0 + stages), (1, 200.0 + stages)]
        assert device.completed == 2

    def test_derate_sampled_at_engine_entry(self):
        # Both requests are enqueued at t=0.  The derate lands while the
        # first is still ringing its doorbell, so it pays 2x engine
        # time; the restore lands before the second enters the engine,
        # so it pays nominal time after waiting for the single engine.
        sim = Simulator()
        device = FleetDevice(
            sim, StubDevice(),
            flat_model(engine_per_byte_ns=1.0, submit_ns=100.0),
            batch_size=1, batch_timeout_ns=None)
        sim.call_later(50.0, lambda: device.set_speed(0.5))
        sim.call_later(150.0, lambda: device.set_speed(1.0))
        done = self._completions(sim, device, [request(tenant=0),
                                               request(tenant=1)])
        assert done == [(0, 100.0 + 2000.0), (1, 2100.0 + 1000.0)]

    def test_fair_arbiter_device_round_robins(self):
        # One batch of three 1000 ns requests on one engine: the fair
        # arbiter serves tenant 1 between tenant 0's two requests, where
        # a shared FIFO serves them in submission order.
        def run(fair_share_tenants):
            sim = Simulator()
            device = FleetDevice(
                sim, StubDevice(), flat_model(engine_per_byte_ns=1.0),
                batch_size=3, batch_timeout_ns=None,
                fair_share_tenants=fair_share_tenants)
            return self._completions(sim, device, [
                request(tenant=0), request(tenant=0), request(tenant=1)])

        assert run(2) == [(0, 1000.0), (1, 2000.0), (0, 3000.0)]
        assert run(None) == [(0, 1000.0), (0, 2000.0), (1, 3000.0)]


class TestBackpressure:
    def test_queue_limit_enforced_on_direct_enqueue(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(), flat_model(), queue_limit=2)
        device.enqueue(request())
        device.enqueue(request())
        assert not device.can_accept()
        with pytest.raises(ServiceError):
            device.enqueue(request())

    def test_overload_sheds_instead_of_blocking(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(),
                             flat_model(engine_per_byte_ns=1.0),
                             queue_limit=2)]
        service = OffloadService(sim, fleet, policy="static")
        outcomes = [service.submit(request()) for _ in range(5)]
        assert outcomes == ["admitted", "admitted", "shed", "shed", "shed"]
        assert service.metrics.shed == 3
        sim.run()
        assert service.metrics.completed == 2
        assert fleet[0].peak_inflight == 2

    def test_full_queue_spills_to_cpu_device(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(), flat_model(), queue_limit=1)]
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(engine_per_byte_ns=0.5), queue_limit=8)
        service = OffloadService(sim, fleet, policy="static",
                                 spill_device=spill)
        outcomes = [service.submit(request()) for _ in range(3)]
        assert outcomes == ["admitted", "spilled", "spilled"]
        sim.run()
        assert service.metrics.completed == 3
        assert spill.completed == 2
        placements = {row["placement"]
                      for row in service.report().breakdown}
        assert "cpu" in placements

    def test_every_device_saturated_spills_to_cpu(self):
        # The whole fleet (not just the pinned device) at its queue
        # limit: cost-model dispatch has no candidate left and the
        # CPU-spill valve takes the overflow.
        sim = Simulator()
        fleet = make_fleet(sim, queue_limit=1)
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(engine_per_byte_ns=0.5), queue_limit=8)
        service = OffloadService(sim, fleet, policy="cost-model",
                                 spill_device=spill)
        outcomes = [service.submit(request()) for _ in range(4)]
        assert outcomes == ["admitted", "admitted", "spilled", "spilled"]
        sim.run()
        assert service.metrics.completed == 4
        assert spill.completed == 2

    def test_saturated_spill_valve_sheds(self):
        sim = Simulator()
        fleet = make_fleet(sim, queue_limit=1)
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(engine_per_byte_ns=0.5), queue_limit=1)
        service = OffloadService(sim, fleet, policy="cost-model",
                                 spill_device=spill)
        outcomes = [service.submit(request()) for _ in range(4)]
        assert outcomes == ["admitted", "admitted", "spilled", "shed"]
        assert service.metrics.shed == 1


class TestAdmission:
    def test_thresholds_validate(self):
        with pytest.raises(ServiceError):
            AdmissionController(spill_threshold=0.9, shed_threshold=0.5)

    def test_decision_bands(self):
        controller = AdmissionController(spill_threshold=0.5,
                                         shed_threshold=0.9)
        assert controller.decide(0.1) is AdmissionDecision.ADMIT
        assert controller.decide(0.5) is AdmissionDecision.SPILL
        assert controller.decide(0.95) is AdmissionDecision.SHED

    def test_spill_threshold_redirects_to_cpu(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(), flat_model(), queue_limit=8)]
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(), queue_limit=64)
        service = OffloadService(
            sim, fleet, policy="cost-model",
            admission=AdmissionController(spill_threshold=0.0,
                                          shed_threshold=2.0),
            spill_device=spill)
        for _ in range(5):
            assert service.submit(request()) == "spilled"
        sim.run()
        assert service.metrics.spilled == 5
        assert spill.completed == 5
        assert fleet[0].completed == 0

    def test_shed_threshold_drops_requests(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(), flat_model(), queue_limit=8)]
        service = OffloadService(
            sim, fleet, policy="cost-model",
            admission=AdmissionController(spill_threshold=0.0,
                                          shed_threshold=0.0))
        assert service.submit(request()) == "shed"
        assert service.metrics.shed == 1
        assert service.metrics.offered == 1

    def test_ewma_alpha_validated(self):
        with pytest.raises(ServiceError):
            AdmissionController(ewma_alpha=0.0)
        with pytest.raises(ServiceError):
            AdmissionController(ewma_alpha=1.5)

    def test_ewma_tracks_trends_not_instants(self):
        controller = AdmissionController(spill_threshold=0.4,
                                         shed_threshold=0.8,
                                         ewma_alpha=0.5)
        # First sample primes the average; load then drains away.
        assert controller.decide(1.0) is AdmissionDecision.SHED
        assert controller.decide(0.0) is AdmissionDecision.SPILL   # 0.50
        assert controller.decide(0.0) is AdmissionDecision.ADMIT   # 0.25
        assert controller.smoothed == pytest.approx(0.25)

    def test_ewma_ignores_single_spike_but_not_sustained_load(self):
        controller = AdmissionController(spill_threshold=0.5,
                                         shed_threshold=0.9,
                                         ewma_alpha=0.2)
        controller.decide(0.0)
        # One batched-doorbell spike must not trip admission...
        assert controller.decide(1.0) is AdmissionDecision.ADMIT   # 0.20
        # ...but sustained overload still does.
        assert controller.decide(1.0) is AdmissionDecision.ADMIT   # 0.36
        assert controller.decide(1.0) is AdmissionDecision.ADMIT   # 0.488
        assert controller.decide(1.0) is AdmissionDecision.SPILL   # 0.590

    def test_default_alpha_is_instantaneous(self):
        controller = AdmissionController(spill_threshold=0.5,
                                         shed_threshold=0.9)
        assert controller.decide(0.0) is AdmissionDecision.ADMIT
        assert controller.decide(1.0) is AdmissionDecision.SHED
        assert controller.decide(0.0) is AdmissionDecision.ADMIT

    def test_reset_clears_ewma_state(self):
        controller = AdmissionController(spill_threshold=0.4,
                                         shed_threshold=0.8,
                                         ewma_alpha=0.5)
        assert controller.decide(1.0) is AdmissionDecision.SHED
        assert controller.decide(0.0) is AdmissionDecision.SPILL   # 0.50
        controller.reset()
        # The first post-reset sample primes afresh instead of
        # blending with the previous run's saturation level.
        assert controller.decide(0.0) is AdmissionDecision.ADMIT
        assert controller.smoothed == 0.0
        assert controller.decide(1.0) is AdmissionDecision.SPILL   # 0.50

    def test_reset_then_identical_samples_reproduce_decisions(self):
        controller = AdmissionController(spill_threshold=0.5,
                                         shed_threshold=0.9,
                                         ewma_alpha=0.2)
        samples = (0.0, 1.0, 1.0, 1.0, 0.3)
        first = [controller.decide(s) for s in samples]
        controller.reset()
        second = [controller.decide(s) for s in samples]
        assert first == second

    def test_service_constructor_resets_shared_controller(self):
        controller = AdmissionController(spill_threshold=0.5,
                                         shed_threshold=0.9,
                                         ewma_alpha=0.2)
        controller.observe(1.0)  # saturated by a previous sweep run
        sim = Simulator()
        OffloadService(sim, make_fleet(sim), policy="cost-model",
                       admission=controller)
        assert controller.smoothed == 0.0


class TestOpenLoopService:
    def _stub_pairs(self):
        return [
            (StubDevice(name="fast", placement=Placement.IN_STORAGE,
                        engines=2), flat_model(engine_per_byte_ns=0.01)),
            (StubDevice(name="slow", placement=Placement.PERIPHERAL),
             flat_model(engine_per_byte_ns=0.2)),
        ]

    def _stream(self, seed=42):
        return OpenLoopStream(offered_gbps=2.0, duration_ns=1e6,
                              tenants=4, request_sizes=(4096, 16384),
                              seed=seed)

    def _run(self, policy="cost-model", seed=42, **fleet_kwargs):
        cluster = parts_cluster(self._stub_pairs(), policy, **fleet_kwargs)
        cluster.open_loop(self._stream(seed=seed))
        return cluster.run().service

    def test_deterministic_given_seed(self):
        first = self._run("cost-model")
        second = self._run("cost-model")
        assert first.offered == second.offered
        assert first.completed == second.completed
        assert first.p99_us == second.p99_us
        assert first.completed_bytes == second.completed_bytes

    def test_different_seed_changes_arrivals(self):
        first = self._run(seed=1)
        second = self._run(seed=2)
        assert (first.offered, first.completed_bytes) != \
               (second.offered, second.completed_bytes)

    def test_breakdown_covers_tenants_and_placements(self):
        report = self._run("round-robin")
        tenants = {row["tenant"] for row in report.breakdown}
        placements = {row["placement"] for row in report.breakdown}
        assert tenants == {0, 1, 2, 3}
        assert placements == {"in-storage", "peripheral"}
        assert sum(row["count"] for row in report.breakdown) \
            == report.completed

    def test_goodput_excludes_post_window_drain(self):
        """Backlog completing after arrivals stop must not inflate
        the windowed goodput figure."""
        report = self._run("round-robin")
        assert report.window_bytes <= report.completed_bytes
        assert report.completed_gbps <= \
            report.completed_bytes / report.duration_ns

    def test_report_row_includes_tail_percentiles(self):
        report = self._run("round-robin")
        row = report.row()
        assert {"p50_us", "p95_us", "p99_us"} <= set(row)
        assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]

    def test_fair_share_arbitration_supported(self):
        report = self._run("round-robin", fair_share_tenants=4)
        assert report.completed == report.offered

    def test_empty_fleet_rejected(self):
        with pytest.raises(ServiceError):
            OffloadService(Simulator(), [], policy="static")


class TestMixedFleetIntegration:
    """Calibrated real devices, small stream — the acceptance check."""

    def _run(self, stream, policy):
        # The calibrated default fleet: one device per placement, no
        # spill reserve, no admission control.
        spec = default_cluster_spec(policy, spill=False)
        cluster = Cluster.from_spec(spec.with_overrides({"admission": None}))
        cluster.open_loop(stream)
        return cluster.run().service

    def test_cost_model_beats_static_at_overload(self):
        stream = OpenLoopStream(offered_gbps=48.0, duration_ns=1.5e6,
                                tenants=4, seed=5)
        reports = {
            policy: self._run(stream, policy)
            for policy in ("static", "round-robin", "cost-model")
        }
        best_static = max(reports["static"].completed_gbps,
                          reports["round-robin"].completed_gbps)
        assert reports["cost-model"].completed_gbps >= best_static

    def test_all_placements_used_below_saturation(self):
        # 36 GB/s is past the ASIC tiers' combined capacity, so the
        # cost model must fold the CPU tier in — but still below the
        # whole fleet's, so everything offered completes.
        stream = OpenLoopStream(offered_gbps=36.0, duration_ns=1.5e6,
                                tenants=4, seed=5)
        report = self._run(stream, "cost-model")
        assert report.completed == report.offered
        used = {row["placement"] for row in report.breakdown}
        assert used == {"cpu", "peripheral", "on-chip", "in-storage"}


class TestBuildFleetValidation:
    def test_duplicate_device_names_rejected(self):
        from repro.service import build_fleet
        sim = Simulator()
        with pytest.raises(ValueError, match="dpzip"):
            build_fleet(sim, [(StubDevice(name="dpzip"), flat_model()),
                              (StubDevice(name="dpzip"), flat_model())])

    def test_duplicate_rejection_is_a_service_error_too(self):
        from repro.errors import FleetConfigError
        from repro.service import build_fleet
        sim = Simulator()
        with pytest.raises(FleetConfigError):
            build_fleet(sim, [(StubDevice(name="x"), flat_model()),
                              (StubDevice(name="x"), flat_model())])
        assert issubclass(FleetConfigError, ServiceError)
        assert issubclass(FleetConfigError, ValueError)

    def test_unique_names_accepted(self):
        from repro.service import build_fleet
        sim = Simulator()
        members, spill = build_fleet(
            sim, [(StubDevice(name="a"), flat_model()),
                  (StubDevice(name="b"), flat_model())],
            spill=(StubDevice(name="a"), flat_model()))
        # A spill valve may share a member's name; it is not a
        # controller target.
        assert [m.name for m in members] == ["a", "b"]
        assert spill.name == "a"

    def test_non_positive_queue_limit_rejected(self):
        from repro.service import build_fleet
        sim = Simulator()
        with pytest.raises(ValueError, match="queue limit"):
            build_fleet(sim, [(StubDevice(name="a"), flat_model())],
                        queue_limit=0)

    def test_non_positive_device_queue_depth_named_in_error(self):
        from repro.service import build_fleet
        sim = Simulator()
        broken = StubDevice(name="dead-qat", queue_depth=0)
        with pytest.raises(ValueError, match="dead-qat"):
            build_fleet(sim, [(broken, flat_model())])
