"""Control-plane scheduler tests: SLO classes, EDF dispatch, shedding.

Unit scenarios run on synthetic stub devices (see ``service_stubs``);
the brown-out acceptance test at the bottom runs the real calibrated
fleet and asserts the deadline-aware scheduler protects high-priority
deadline-miss rate where the flat cost-model policy does not.
"""

import dataclasses
import math

import pytest

from service_stubs import StubDevice, flat_model
from repro.cluster import Cluster, ReconfigEvent, default_cluster_spec
from repro.errors import ServiceError
from repro.service import (
    BEST_EFFORT,
    INTERACTIVE,
    SLO_CLASSES,
    THROUGHPUT,
    AdmissionController,
    FleetDevice,
    OffloadRequest,
    OpenLoopStream,
    SchedulerCore,
    SloClass,
    make_policy,
    make_slo_class,
)
from repro.sim.engine import Simulator


def request(tenant=0, nbytes=1000, ratio=1.0, slo=BEST_EFFORT):
    return OffloadRequest(tenant=tenant, nbytes=nbytes, ratio=ratio, slo=slo)


class TestSloClass:
    def test_standard_classes_ordered_by_tier(self):
        assert INTERACTIVE.tier < THROUGHPUT.tier < BEST_EFFORT.tier
        assert INTERACTIVE.deadline_ns < THROUGHPUT.deadline_ns
        assert math.isinf(BEST_EFFORT.deadline_ns)

    def test_lookup_by_name(self):
        assert make_slo_class("interactive") is INTERACTIVE
        assert set(SLO_CLASSES) == {"interactive", "throughput",
                                    "best-effort"}
        with pytest.raises(ServiceError):
            make_slo_class("gold-plated")

    def test_validation(self):
        with pytest.raises(ServiceError):
            SloClass("bad", tier=-1, deadline_ns=1.0)
        with pytest.raises(ServiceError):
            SloClass("bad", tier=0, deadline_ns=0.0)

    def test_request_deadline_is_arrival_plus_budget(self):
        req = request(slo=SloClass("t", tier=0, deadline_ns=500.0))
        req.arrival_ns = 1000.0
        assert req.deadline_ns == 1500.0

    def test_requests_default_to_best_effort(self):
        assert request().slo is BEST_EFFORT


class TestStreamSloMix:
    def _mix(self):
        return ((INTERACTIVE, 0.25), (THROUGHPUT, 0.75))

    def test_mix_draws_only_listed_classes(self):
        stream = OpenLoopStream(offered_gbps=1.0, duration_ns=1e6,
                                slo_mix=self._mix(), seed=3)
        rng = stream.rng()
        drawn = {stream.make_request(rng).slo.name for _ in range(200)}
        assert drawn == {"interactive", "throughput"}

    def test_mix_is_deterministic_given_seed(self):
        def names(seed):
            stream = OpenLoopStream(offered_gbps=1.0, duration_ns=1e6,
                                    slo_mix=self._mix(), seed=seed)
            rng = stream.rng()
            return [stream.make_request(rng).slo.name for _ in range(50)]
        assert names(7) == names(7)
        assert names(7) != names(8)

    def test_no_mix_means_best_effort(self):
        stream = OpenLoopStream(offered_gbps=1.0, duration_ns=1e6)
        assert stream.make_request(stream.rng()).slo is BEST_EFFORT

    def test_mix_validation(self):
        with pytest.raises(ServiceError):
            OpenLoopStream(offered_gbps=1.0, duration_ns=1e6, slo_mix=())
        with pytest.raises(ServiceError):
            OpenLoopStream(offered_gbps=1.0, duration_ns=1e6,
                           slo_mix=((INTERACTIVE, 0.0),))


def one_device_service(sim, policy="deadline", engine_per_byte=1.0,
                       pending_limit=None, **kwargs):
    """A single slow serial device, so work backs up in the scheduler."""
    device = FleetDevice(sim, StubDevice(name="only"),
                         flat_model(engine_per_byte_ns=engine_per_byte),
                         queue_limit=1, batch_size=1)
    service = SchedulerCore(sim, [device], policy,
                            pending_limit=pending_limit, **kwargs)
    return service, device


class TestPendingQueue:
    def test_full_fleet_queues_instead_of_shedding(self):
        sim = Simulator()
        service, device = one_device_service(sim)
        assert service.submit(request()) == "admitted"
        assert service.submit(request()) == "queued"
        assert service.pending == 1
        sim.run()
        assert service.metrics.completed == 2
        assert service.metrics.shed == 0
        assert service.pending == 0

    def test_flat_policy_keeps_zero_pending_limit(self):
        # Back-compat: without an SLO-aware policy the pending queue is
        # disabled and overload sheds immediately, SLO tag or not.
        sim = Simulator()
        service, _ = one_device_service(sim, policy="cost-model")
        assert service.submit(request(slo=INTERACTIVE)) == "admitted"
        assert service.submit(request(slo=INTERACTIVE)) == "shed"
        assert service.pending_limit == 0

    def test_edf_order_within_tier(self):
        sim = Simulator()
        service, _ = one_device_service(sim)
        order = []

        def tagged(tag):
            return lambda req, dev, cost: order.append(tag)

        service.submit(request(), on_complete=tagged("blocker"))
        for tag, budget in (("late", 3000.0), ("early", 1000.0),
                            ("mid", 2000.0)):
            slo = SloClass(tag, tier=1, deadline_ns=budget)
            assert service.submit(request(slo=slo),
                                  on_complete=tagged(tag)) == "queued"
        sim.run()
        assert order == ["blocker", "early", "mid", "late"]

    def test_priority_beats_deadline_across_tiers(self):
        sim = Simulator()
        service, _ = one_device_service(sim)
        order = []

        def tagged(tag):
            return lambda req, dev, cost: order.append(tag)

        service.submit(request(), on_complete=tagged("blocker"))
        lo = SloClass("lo", tier=2, deadline_ns=10.0)     # tight deadline
        hi = SloClass("hi", tier=0, deadline_ns=1e9)      # loose deadline
        service.submit(request(slo=lo), on_complete=tagged("lo"))
        service.submit(request(slo=hi), on_complete=tagged("hi"))
        sim.run()
        assert order == ["blocker", "hi", "lo"]

    def test_low_priority_shed_first_when_pending_fills(self):
        sim = Simulator()
        service, _ = one_device_service(sim, pending_limit=2)
        dropped = []
        service.submit(request())  # occupies the device
        for tag in ("be0", "be1"):
            assert service.submit(
                request(slo=BEST_EFFORT),
                on_drop=lambda req, tag=tag: dropped.append(tag),
            ) == "queued"
        # The interactive arrival evicts the worst best-effort entry
        # (same class and deadline here, so the later arrival loses).
        assert service.submit(request(slo=INTERACTIVE)) == "queued"
        assert dropped == ["be1"]
        assert service.metrics.shed == 1
        sim.run()
        assert service.metrics.slo["best-effort"].shed == 1
        assert service.metrics.slo["interactive"].shed == 0

    def test_eviction_storm_compacts_tombstones(self):
        # Lazy deletion leaves cancelled entries in the EDF heap; a
        # sustained eviction storm must trigger the compaction audit so
        # tombstones never dominate the heap.
        sim = Simulator()
        service, _ = one_device_service(sim, pending_limit=40)
        assert service.submit(request(slo=BEST_EFFORT)) == "admitted"
        for _ in range(40):
            assert service.submit(request(slo=BEST_EFFORT)) == "queued"
        assert len(service._heap) == 40
        # Every interactive arrival evicts one parked best-effort entry
        # and parks itself; 40 evictions cross the compaction trigger.
        for _ in range(40):
            assert service.submit(request(slo=INTERACTIVE)) == "queued"
        assert service.pending == 40
        assert service._cancelled_count == 0
        assert len(service._heap) == 40
        assert all(not item[3].cancelled for item in service._heap)
        assert service.metrics.shed == 40
        sim.run()
        # Dispatch after compaction still drains every live entry.
        assert service.metrics.completed == 41

    def test_equal_tier_cannot_evict(self):
        sim = Simulator()
        service, _ = one_device_service(sim, pending_limit=1)
        service.submit(request(slo=INTERACTIVE))
        assert service.submit(request(slo=INTERACTIVE)) == "queued"
        # No spill device and nothing lower-priority to evict: shed.
        assert service.submit(request(slo=INTERACTIVE)) == "shed"
        assert service.metrics.shed == 1

    def test_admission_shed_evicts_lower_priority_instead(self):
        sim = Simulator()
        service, _ = one_device_service(sim, pending_limit=4)
        dropped = []
        service.submit(request())  # occupies the device
        service.submit(request(slo=BEST_EFFORT),
                       on_drop=lambda req: dropped.append("be"))
        # Force every subsequent admission decision to SHED.
        controller = AdmissionController(spill_threshold=0.0,
                                         shed_threshold=0.0)
        controller.decide(1.0)
        service.admission = controller
        assert service.submit(request(slo=INTERACTIVE)) == "queued"
        assert dropped == ["be"]
        # ...but an arrival with nothing below it still sheds.
        assert service.submit(request(slo=BEST_EFFORT)) == "shed"

    def test_pending_drains_through_timerless_batches_after_stream_end(self):
        # Work dispatched from the pending queue *after* the end-of-
        # stream flush lands in device batch buffers; with no batch
        # timer a partial batch would never ring its doorbell, so the
        # drain-mode scheduler must flush on every post-stream dispatch.
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(), flat_model(1.0),
                             queue_limit=1, batch_size=4,
                             batch_timeout_ns=None)
        service = SchedulerCore(sim, [device], "deadline")
        for _ in range(4):
            service.submit(request())
        service.flush()  # the stream has ended
        sim.run()
        assert service.metrics.completed == 4
        assert service.pending == 0

    def test_on_drop_fires_on_synchronous_shed(self):
        sim = Simulator()
        service, _ = one_device_service(sim, policy="static")
        dropped = []
        service.submit(request())
        outcome = service.submit(request(),
                                 on_drop=lambda req: dropped.append(req))
        assert outcome == "shed"
        assert len(dropped) == 1


class TestDeadlineAccounting:
    def test_late_completion_counts_as_miss(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(),
                             flat_model(engine_per_byte_ns=1.0),
                             queue_limit=4, batch_size=1)
        service = SchedulerCore(sim, [device], "cost-model")
        tight = SloClass("tight", tier=0, deadline_ns=500.0)
        loose = SloClass("loose", tier=1, deadline_ns=1e9)
        service.submit(request(nbytes=1000, slo=tight))  # 1000 ns > 500
        service.submit(request(nbytes=1000, slo=loose))
        sim.run()
        report = service.report()
        rows = {row["slo"]: row for row in report.slo_breakdown}
        assert rows["tight"]["missed"] == 1
        assert rows["tight"]["miss_rate"] == pytest.approx(1.0)
        assert rows["loose"]["missed"] == 0
        assert report.slo_miss_rate("loose") == 0.0

    def test_shed_counts_toward_miss_rate(self):
        sim = Simulator()
        service, _ = one_device_service(sim, policy="static")
        service.submit(request(slo=INTERACTIVE))
        service.submit(request(slo=INTERACTIVE))  # shed: device full
        sim.run()
        row = {r["slo"]: r for r in service.report().slo_breakdown}
        assert row["interactive"]["shed"] == 1
        assert row["interactive"]["miss_rate"] == pytest.approx(0.5)

    def test_unknown_slo_class_rejected(self):
        sim = Simulator()
        service, _ = one_device_service(sim, policy="static")
        service.submit(request())
        sim.run()
        with pytest.raises(ServiceError):
            service.report().slo_miss_rate("gold-plated")

    def test_best_effort_never_misses(self):
        sim = Simulator()
        service, _ = one_device_service(sim, policy="cost-model",
                                        engine_per_byte=100.0)
        service.submit(request(nbytes=10000))  # 1 ms on a best-effort SLO
        sim.run()
        row = service.report().slo_breakdown[0]
        assert row["slo"] == "best-effort"
        assert row["missed"] == 0


class TestDeadlinePolicyPlumbing:
    def test_deadline_policy_is_slo_aware(self):
        assert make_policy("deadline").slo_aware
        assert not make_policy("cost-model").slo_aware

    def test_service_report_includes_migrated_column(self):
        sim = Simulator()
        service, _ = one_device_service(sim, policy="static")
        service.submit(request())
        sim.run()
        assert service.report().migrated == 0


class TestBrownOutAcceptance:
    """The acceptance check: a QAT brown-out mid-run, deadline-aware
    scheduling keeps high-priority miss rate strictly below the flat
    cost-model policy's."""

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.experiments.slo_degradation import (
            BATCH_4MS,
            INTERACTIVE_150US,
        )
        stream = OpenLoopStream(
            offered_gbps=40.0, duration_ns=3e6, tenants=4,
            slo_mix=((INTERACTIVE_150US, 0.3), (BATCH_4MS, 0.7)), seed=11)
        browned = ReconfigEvent(at_ns=1e6, action="brown-out",
                                device="qat8970", speed_factor=0.15)

        def run(policy):
            # The calibrated default fleet with shallow device queues,
            # no spill reserve and no admission control.
            spec = dataclasses.replace(
                default_cluster_spec(policy, spill=False).with_overrides(
                    {"admission": None, "fleet.queue_limit": 6}),
                reconfig=(browned,))
            cluster = Cluster.from_spec(spec)
            cluster.open_loop(stream)
            return cluster.run().service

        return {policy: run(policy) for policy in ("cost-model", "deadline")}

    def test_reports_carry_per_slo_class_miss_rates(self, reports):
        for report in reports.values():
            classes = {row["slo"] for row in report.slo_breakdown}
            assert classes == {"interactive", "batch"}
            for row in report.slo_breakdown:
                assert {"completed", "missed", "shed",
                        "miss_rate", "p99_us"} <= set(row)

    def test_deadline_scheduler_protects_high_priority(self, reports):
        flat = reports["cost-model"].slo_miss_rate("interactive")
        deadline = reports["deadline"].slo_miss_rate("interactive")
        assert deadline < flat
        # The protection is structural, not a rounding artifact.
        assert deadline < 0.5 * flat

    def test_protection_costs_low_priority_not_goodput(self, reports):
        flat, deadline = reports["cost-model"], reports["deadline"]
        # Priority protection must not tank aggregate goodput.
        assert deadline.completed_gbps >= 0.9 * flat.completed_gbps
        # The brown-out pain lands on the batch tier instead.
        assert (deadline.slo_miss_rate("batch")
                >= deadline.slo_miss_rate("interactive"))


class TestDeadlineFeasibilitySpill:
    """Requests whose deadline no online device can predictably make
    route straight to the CPU spill path instead of burning fleet
    capacity on a guaranteed miss."""

    def _service(self, sim, engine_per_byte=1.0, spill=True, **kwargs):
        device = FleetDevice(sim, StubDevice(name="slow"),
                             flat_model(engine_per_byte_ns=engine_per_byte),
                             queue_limit=4, batch_size=1)
        spill_device = None
        if spill:
            spill_device = FleetDevice(
                sim, StubDevice(name="cpu"),
                flat_model(engine_per_byte_ns=engine_per_byte),
                queue_limit=64, batch_size=1)
        service = SchedulerCore(sim, [device], "cost-model",
                                spill_device=spill_device, **kwargs)
        return service, device, spill_device

    def test_infeasible_deadline_spills_immediately(self):
        sim = Simulator()
        service, device, spill = self._service(sim)
        tight = SloClass("tight", tier=0, deadline_ns=500.0)
        # 1000 bytes at 1 ns/byte: predicted 1000 ns > 500 ns budget.
        assert service.submit(request(nbytes=1000, slo=tight)) == "spilled"
        sim.run()
        assert device.completed == 0
        assert spill.completed == 1
        assert service.metrics.spilled == 1

    def test_feasible_deadline_stays_on_fleet(self):
        sim = Simulator()
        service, device, spill = self._service(sim)
        roomy = SloClass("roomy", tier=0, deadline_ns=1e6)
        assert service.submit(request(nbytes=1000, slo=roomy)) == "admitted"
        sim.run()
        assert device.completed == 1
        assert spill.completed == 0

    def test_infeasible_count_reported_per_slo_class(self):
        sim = Simulator()
        service, _, _ = self._service(sim)
        tight = SloClass("tight", tier=0, deadline_ns=500.0)
        service.submit(request(nbytes=1000, slo=tight))
        service.submit(request(nbytes=100, slo=tight))  # feasible
        sim.run()
        rows = {row["slo"]: row for row in service.report().slo_breakdown}
        assert rows["tight"]["infeasible"] == 1

    def test_no_spill_device_keeps_dispatching(self):
        # Without a spill valve there is nowhere cheaper to send the
        # guaranteed miss; dispatching beats shedding.
        sim = Simulator()
        service, device, _ = self._service(sim, spill=False)
        tight = SloClass("tight", tier=0, deadline_ns=500.0)
        assert service.submit(request(nbytes=1000, slo=tight)) == "admitted"
        sim.run()
        assert device.completed == 1
        assert service.report().slo_breakdown[0]["infeasible"] == 0

    def test_best_effort_skips_the_check(self):
        sim = Simulator()
        service, device, spill = self._service(sim, engine_per_byte=100.0)
        assert service.submit(request(nbytes=10000)) == "admitted"
        sim.run()
        assert device.completed == 1
        assert spill.completed == 0

    def test_saturated_spill_valve_disables_the_check(self):
        sim = Simulator()
        service, device, spill = self._service(sim)
        spill.queue_limit = 1
        blocker = SloClass("tight", tier=0, deadline_ns=500.0)
        assert service.submit(request(nbytes=1000, slo=blocker)) == "spilled"
        # The valve is now full: the next infeasible request dispatches
        # onto the fleet rather than being shed.
        assert service.submit(request(nbytes=1000, slo=blocker)) == "admitted"
        sim.run()
        assert device.completed == 1
        assert spill.completed == 1
