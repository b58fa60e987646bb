"""Fleet-controller tests: hotplug, drain/yank unplug, brown-out,
power capping — all while the data plane keeps serving."""

import pytest

from service_stubs import StubDevice, flat_model
from repro.cluster import Cluster, ClusterSpec, FleetSpec
from repro.errors import ConfigurationError, ServiceError
from repro.experiments.service_scaling import MIXES, SPILL
from repro.hw.cpu import CpuSoftwareDevice
from repro.hw.dpzip import DpzipEngine
from repro.hw.engine import Placement
from repro.hw.power import device_active_w, plan_power_cap
from repro.hw.qat import Qat8970
from repro.profiling import PowerMeter
from repro.service import (
    DeviceState,
    FleetController,
    FleetDevice,
    OffloadRequest,
    SchedulerCore,
)
from repro.sim.engine import Simulator


def request(tenant=0, nbytes=1000, ratio=1.0):
    return OffloadRequest(tenant=tenant, nbytes=nbytes, ratio=ratio)


def two_device_service(sim, policy="deadline", queue_limit=4, **kwargs):
    fleet = [
        FleetDevice(sim, StubDevice(name="a"), flat_model(0.01),
                    queue_limit=queue_limit, batch_size=1),
        FleetDevice(sim, StubDevice(name="b"), flat_model(0.02),
                    queue_limit=queue_limit, batch_size=1),
    ]
    service = SchedulerCore(sim, fleet, policy, **kwargs)
    return service, fleet


class TestScheduling:
    def test_at_fires_at_virtual_time(self):
        sim = Simulator()
        service, fleet = two_device_service(sim)
        controller = FleetController(service)
        controller.at(5000.0, lambda: controller.brown_out("a", 0.5))
        assert fleet[0].speed_factor == 1.0
        sim.run()
        assert fleet[0].speed_factor == 0.5
        assert controller.events[0][:3] == (5000.0, "brown-out", "a")

    def test_at_in_the_past_rejected(self):
        sim = Simulator()
        service, _ = two_device_service(sim)
        controller = FleetController(service)
        sim.call_later(100.0, lambda: None)
        sim.run()
        with pytest.raises(ServiceError):
            controller.at(50.0, lambda: None)

    def test_unknown_device_rejected(self):
        sim = Simulator()
        service, _ = two_device_service(sim)
        controller = FleetController(service)
        with pytest.raises(ServiceError):
            controller.brown_out("ghost", 0.5)


class TestHotplug:
    def test_hotplug_adds_capacity_and_drains_pending(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(name="a"), flat_model(0.01),
                             queue_limit=1, batch_size=1)
        service = SchedulerCore(sim, [device], "deadline")
        controller = FleetController(service)
        service.submit(request())
        assert service.submit(request()) == "queued"
        extra = FleetDevice(sim, StubDevice(name="c"), flat_model(0.01),
                            queue_limit=4, batch_size=1)
        controller.hotplug(extra)
        # The pending request dispatched onto the new member at once.
        assert service.pending == 0
        assert extra.inflight == 1
        sim.run()
        assert service.metrics.completed == 2
        assert extra.completed == 1

    def test_duplicate_hotplug_rejected(self):
        sim = Simulator()
        service, fleet = two_device_service(sim)
        controller = FleetController(service)
        with pytest.raises(ServiceError):
            controller.hotplug(fleet[0])

    def test_foreign_simulator_hotplug_rejected(self):
        # A device built on another simulator would accept work whose
        # serving processes never run here — catch it at the boundary.
        sim = Simulator()
        service, _ = two_device_service(sim)
        stray = FleetDevice(Simulator(), StubDevice(name="stray"),
                            flat_model(0.01))
        with pytest.raises(ServiceError, match="different simulator"):
            FleetController(service).hotplug(stray)


class TestUnplug:
    def test_graceful_drain_completes_inflight_then_offlines(self):
        sim = Simulator()
        service, fleet = two_device_service(sim, policy="cost-model")
        a, b = fleet
        for _ in range(3):
            service.submit(request())
        assert a.inflight > 0
        controller = FleetController(service)
        controller.unplug("a", drain=True)
        assert a.state is DeviceState.DRAINING
        assert not a.can_accept()
        # New work routes around the draining device immediately.
        service.submit(request())
        sim.run()
        assert a.state is DeviceState.OFFLINE
        assert service.metrics.completed == 4
        assert b.completed >= 1
        actions = [event[1] for event in controller.events]
        assert actions == ["unplug", "offline"]

    def test_graceful_drain_flushes_buffered_batch(self):
        # A draining device accepts no new work, so a partially filled
        # batch would never hit its size trigger; the drain must ring
        # the doorbell itself or the device never empties and the
        # drain-poll loop spins forever.
        sim = Simulator()
        a = FleetDevice(sim, StubDevice(name="a"), flat_model(0.01),
                        queue_limit=8, batch_size=8,
                        batch_timeout_ns=None)
        service = SchedulerCore(sim, [a], "cost-model")
        for _ in range(3):
            service.submit(request())
        assert a.batcher.pending == 3
        FleetController(service).unplug("a", drain=True)
        sim.run()
        assert a.state is DeviceState.OFFLINE
        assert a.completed == 3
        assert service.metrics.completed == 3

    def test_yank_migrates_buffered_work(self):
        sim = Simulator()
        # Big batch + long timeout: submissions sit in the batch buffer
        # (not yet doorbelled) where a yank can reclaim them.
        a = FleetDevice(sim, StubDevice(name="a"), flat_model(0.01),
                        queue_limit=8, batch_size=8,
                        batch_timeout_ns=1e9)
        b = FleetDevice(sim, StubDevice(name="b"), flat_model(1.0),
                        queue_limit=8, batch_size=1)
        service = SchedulerCore(sim, [a, b], "cost-model")
        for _ in range(3):
            service.submit(request())
        assert a.batcher.pending == 3
        controller = FleetController(service)
        controller.unplug("a", drain=False)
        assert a.batcher.pending == 0
        assert a.inflight == 0
        assert service.metrics.migrated == 3
        sim.run()
        assert a.state is DeviceState.OFFLINE
        assert a.completed == 0
        assert b.completed == 3
        assert service.metrics.completed == 3
        assert service.report().migrated == 3

    def test_yank_spills_when_rest_of_fleet_saturated(self):
        sim = Simulator()
        a = FleetDevice(sim, StubDevice(name="a"), flat_model(0.01),
                        queue_limit=8, batch_size=8, batch_timeout_ns=1e9)
        b = FleetDevice(sim, StubDevice(name="b"), flat_model(1.0),
                        queue_limit=1, batch_size=1)
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(0.5), queue_limit=16, batch_size=1)
        service = SchedulerCore(sim, [a, b], "cost-model",
                                spill_device=spill)
        service.submit(request())            # lands on a's buffer
        service.submit(request(nbytes=10))   # fills b
        assert b.inflight == 1
        FleetController(service).unplug("a", drain=False)
        assert service.metrics.migrated == 1
        assert service.metrics.spilled == 1
        sim.run()
        assert spill.completed == 1
        assert service.metrics.completed == 2

    def test_unplug_offline_device_rejected(self):
        sim = Simulator()
        service, _ = two_device_service(sim)
        controller = FleetController(service)
        controller.unplug("a", drain=True)
        sim.run()
        with pytest.raises(ServiceError):
            controller.unplug("a")

    def test_offline_with_inflight_rejected(self):
        sim = Simulator()
        service, fleet = two_device_service(sim)
        service.submit(request())
        with pytest.raises(ServiceError):
            fleet[0].set_offline()


class TestBrownOut:
    def test_derate_scales_estimates_and_service_time(self):
        sim = Simulator()
        device = FleetDevice(sim, StubDevice(name="a"), flat_model(1.0),
                             queue_limit=4, batch_size=1)
        healthy = device.estimate_response_ns(request(nbytes=100))
        device.set_speed(0.5)
        derated = device.estimate_response_ns(request(nbytes=100))
        assert derated == pytest.approx(2 * healthy)
        device.enqueue(request(nbytes=100))
        sim.run()
        assert sim.now == pytest.approx(200.0)  # 100 ns engine at half speed

    def test_placement_steers_around_browned_out_device(self):
        sim = Simulator()
        service, fleet = two_device_service(sim, policy="cost-model")
        a, b = fleet
        # Healthy, a (0.01 ns/B) wins; browned out to 10%, b must win.
        FleetController(service).brown_out("a", 0.1)
        service.submit(request())
        assert b.inflight == 1
        assert a.inflight == 0

    def test_restore_returns_to_full_speed(self):
        sim = Simulator()
        service, fleet = two_device_service(sim)
        controller = FleetController(service)
        controller.brown_out("a", 0.25)
        controller.restore("a")
        assert fleet[0].speed_factor == 1.0

    def test_speed_factor_validated(self):
        sim = Simulator()
        service, fleet = two_device_service(sim)
        with pytest.raises(ServiceError):
            fleet[0].set_speed(0.0)
        with pytest.raises(ServiceError):
            fleet[0].set_speed(1.5)


class TestPowerBudgets:
    def test_device_active_watts_catalog(self):
        assert device_active_w(Qat8970()) == pytest.approx(35.0)
        assert device_active_w(DpzipEngine()) == pytest.approx(2.5)
        assert device_active_w(CpuSoftwareDevice("deflate")) \
            == pytest.approx(132.0)
        with pytest.raises(ConfigurationError):
            device_active_w(StubDevice(name="toaster"))
        # Keyed on kind, not name: a renamed member draws what its kind
        # draws, and a name matching a catalogue entry buys nothing.
        renamed = DpzipEngine()
        renamed.name = "dpzip0"
        assert device_active_w(renamed) == pytest.approx(2.5)
        with pytest.raises(ConfigurationError, match="'qat8970'"):
            device_active_w(StubDevice(name="qat8970"))

    def test_meter_prices_renamed_members_by_kind(self):
        sim = Simulator()
        renamed = FleetDevice(sim, StubDevice(name="dpzip0",
                                              power_kind="dpzip-engine"),
                              flat_model(0.01), queue_limit=4)
        unknown = FleetDevice(sim, StubDevice(name="toaster"),
                              flat_model(0.01), queue_limit=4)
        for device in (renamed, unknown):
            device.enqueue(request())
        # Full draw at a quarter fill; no catalogue entry draws nothing.
        meter = PowerMeter()
        assert meter.device_draw_w(renamed) == pytest.approx(2.5 / 4)
        assert meter.device_draw_w(unknown) == 0.0

    def test_plan_under_budget_is_identity(self):
        plan = plan_power_cap({"a": 10.0, "b": 20.0}, budget_w=50.0)
        assert plan == {"a": 1.0, "b": 1.0}

    def test_plan_over_budget_derates_proportionally(self):
        plan = plan_power_cap({"a": 30.0, "b": 30.0}, budget_w=30.0)
        assert plan["a"] == pytest.approx(0.5)
        assert plan["b"] == pytest.approx(0.5)

    def test_plan_floors_at_five_percent(self):
        plan = plan_power_cap({"a": 1000.0}, budget_w=1.0)
        assert plan["a"] == pytest.approx(0.05)

    def test_plan_validates_budget(self):
        with pytest.raises(ConfigurationError):
            plan_power_cap({"a": 1.0}, budget_w=0.0)


class TestPowerCap:
    def _qat_pair_service(self, sim):
        fleet = [
            FleetDevice(sim, StubDevice(name="qat8970",
                                        power_kind="qat8970"),
                        flat_model(0.01), queue_limit=4, batch_size=1),
            FleetDevice(sim, StubDevice(name="qat4xxx",
                                        power_kind="qat4xxx"),
                        flat_model(0.02), queue_limit=4, batch_size=1),
        ]
        return SchedulerCore(sim, fleet, "cost-model"), fleet

    def test_power_cap_derates_fleet_to_budget(self):
        sim = Simulator()
        service, fleet = self._qat_pair_service(sim)
        controller = FleetController(service)
        # qat8970 (35 W) + qat4xxx (15 W) = 50 W demand, capped at 25 W.
        plan = controller.power_cap(25.0)
        assert plan == {"qat8970": 0.5, "qat4xxx": 0.5}
        assert all(d.speed_factor == 0.5 for d in fleet)

    def test_uncap_restores_full_speed(self):
        sim = Simulator()
        service, fleet = self._qat_pair_service(sim)
        controller = FleetController(service)
        controller.power_cap(25.0)
        controller.uncap()
        assert all(d.speed_factor == 1.0 for d in fleet)

    def test_duplicate_device_names_fully_counted_and_capped(self):
        # A fleet built from parts may carry two identical DPZip
        # engines; both must contribute to demand and be derated.
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dpzip",
                                             power_kind="dpzip-engine"),
                             flat_model(0.01), queue_limit=4, batch_size=1)
                 for _ in range(2)]
        service = SchedulerCore(sim, fleet, "cost-model")
        controller = FleetController(service)
        demand = controller.fleet_active_w()
        assert demand == {"dpzip": 2.5, "dpzip#2": 2.5}
        plan = controller.power_cap(2.5)  # half of the 5 W demand
        assert plan == {"dpzip": 0.5, "dpzip#2": 0.5}
        assert all(d.speed_factor == 0.5 for d in fleet)

    def test_asic_mix_can_be_power_capped(self):
        # service_scaling's "asic" mix renames its DPZip engines; the
        # cap prices them by kind: 35 + 15 + 2 x 2.5 = 55 W of demand.
        def asic_cluster(budget_w):
            return Cluster.from_spec(ClusterSpec(
                fleet=FleetSpec(devices=MIXES["asic"], spill=SPILL),
                power_budget_w=budget_w))

        controller = asic_cluster(200.0).controller
        assert controller.fleet_active_w() == {
            "qat8970": 35.0, "qat4xxx": 15.0, "dpzip0": 2.5, "dpzip1": 2.5}
        assert {d.speed_factor for d in controller.scheduler.devices} \
            == {1.0}
        capped = asic_cluster(27.5).controller
        assert {d.speed_factor for d in capped.scheduler.devices} == {0.5}

    def test_ambiguous_device_name_rejected(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dpzip"),
                             flat_model(0.01), queue_limit=4, batch_size=1)
                 for _ in range(2)]
        service = SchedulerCore(sim, fleet, "cost-model")
        with pytest.raises(ServiceError, match="ambiguous"):
            FleetController(service).brown_out("dpzip", 0.5)

    def test_generous_budget_lifts_existing_derate(self):
        sim = Simulator()
        service, fleet = self._qat_pair_service(sim)
        controller = FleetController(service)
        controller.power_cap(25.0)
        plan = controller.power_cap(100.0)
        assert set(plan.values()) == {1.0}
        assert all(d.speed_factor == 1.0 for d in fleet)


class TestUtilizationUnderReconfiguration:
    def test_offline_capacity_leaves_the_denominator(self):
        sim = Simulator()
        service, fleet = two_device_service(sim, queue_limit=2)
        assert service.utilization() == 0.0
        service.submit(request())
        util_before = service.utilization()        # 1 of 4 slots
        FleetController(service).unplug("b", drain=True)
        util_after = service.utilization()         # 1 of 2 slots
        assert util_after == pytest.approx(2 * util_before)

    def test_fully_offline_fleet_reads_saturated(self):
        sim = Simulator()
        service, _ = two_device_service(sim)
        controller = FleetController(service)
        controller.unplug("a", drain=True)
        controller.unplug("b", drain=True)
        assert service.utilization() == 1.0

    def test_submit_with_fleet_offline_spills_instead_of_parking(self):
        # Parking with no online member would strand the request
        # forever (no completion will ever pump the queue); the spill
        # path must take it immediately.
        sim = Simulator()
        a = FleetDevice(sim, StubDevice(name="a"), flat_model(1.0),
                        queue_limit=1, batch_size=1)
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(0.5), queue_limit=16, batch_size=1)
        service = SchedulerCore(sim, [a], "deadline", spill_device=spill)
        FleetController(service).unplug("a", drain=True)
        assert service.submit(request()) == "spilled"
        sim.run()
        assert service.metrics.completed == 1
        assert spill.completed == 1

    def test_submit_with_fleet_offline_and_no_spill_sheds(self):
        sim = Simulator()
        a = FleetDevice(sim, StubDevice(name="a"), flat_model(1.0),
                        queue_limit=1, batch_size=1)
        service = SchedulerCore(sim, [a], "deadline")
        FleetController(service).unplug("a", drain=True)
        dropped = []
        assert service.submit(request(),
                              on_drop=lambda req: dropped.append(req)) \
            == "shed"
        assert len(dropped) == 1
        assert service.pending == 0

    def test_pending_drains_through_spill_when_fleet_vanishes(self):
        sim = Simulator()
        a = FleetDevice(sim, StubDevice(name="a"), flat_model(1.0),
                        queue_limit=1, batch_size=1)
        spill = FleetDevice(
            sim, StubDevice(name="cpu", placement=Placement.CPU_SOFTWARE),
            flat_model(0.5), queue_limit=16, batch_size=1)
        service = SchedulerCore(sim, [a], "deadline", spill_device=spill)
        service.submit(request())
        assert service.submit(request()) == "queued"
        controller = FleetController(service)
        controller.unplug("a", drain=True)
        # Draining removed the only online member; the pending request
        # must leave through the CPU-spill path instead of starving.
        service.pump()
        assert service.pending == 0
        assert service.metrics.spilled == 1
        sim.run()
        assert service.metrics.completed == 2
