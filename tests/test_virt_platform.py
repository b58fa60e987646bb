"""Multi-tenant simulation, SR-IOV configs, platform constraint tests."""

import pytest

from repro.devices import (
    TABLE1_CDPUS,
    ArbitrationPolicy,
    dpcsd_vf_config,
    qat4xxx_vf_config,
    qat8970_vf_config,
    spec_by_name,
    ssd_vf_config,
)
from repro.errors import ConfigurationError
from repro.platform import Server, build_testbed
from repro.sim import Simulator
from repro.virt import (
    DeviceServiceModel,
    FairArbiter,
    FcfsArbiter,
    MultiTenantSim,
    VfRequest,
    csd_tenant_profile,
    qat_tenant_profile,
)


class TestArbiters:
    def _drive(self, arbiter, sim, submissions):
        done = []
        for vf, service in submissions:
            arbiter.submit(VfRequest(
                vf_index=vf, nbytes=100, service_ns=service,
                on_done=lambda v=vf: done.append((v, sim.now))))
        sim.run()
        return done

    def test_fcfs_serves_in_submission_order(self):
        sim = Simulator()
        arbiter = FcfsArbiter(sim, engine_slots=1, queue_ceiling=64)
        done = self._drive(arbiter, sim, [(0, 10), (1, 10), (2, 10)])
        assert [v for v, _ in done] == [0, 1, 2]

    def test_fcfs_burst_monopolizes(self):
        sim = Simulator()
        arbiter = FcfsArbiter(sim, engine_slots=1, queue_ceiling=64)
        submissions = [(0, 10)] * 8 + [(1, 10)]
        done = self._drive(arbiter, sim, submissions)
        assert done[-1][0] == 1  # the other VF waits behind the burst

    def test_fair_round_robin_interleaves(self):
        sim = Simulator()
        arbiter = FairArbiter(sim, engine_slots=1, vf_count=2)
        submissions = [(0, 10)] * 4 + [(1, 10)] * 4
        done = self._drive(arbiter, sim, submissions)
        order = [v for v, _ in done]
        assert order[:4] == [0, 1, 0, 1]

    def test_fcfs_queue_ceiling_blocks(self):
        sim = Simulator()
        arbiter = FcfsArbiter(sim, engine_slots=1, queue_ceiling=2)
        done = self._drive(arbiter, sim, [(0, 5)] * 6)
        assert len(done) == 6  # all eventually complete


class TestVfConfigs:
    def test_policies(self):
        assert qat8970_vf_config().policy is ArbitrationPolicy.SHARED_FCFS
        assert qat4xxx_vf_config().policy is ArbitrationPolicy.SHARED_FCFS
        assert dpcsd_vf_config().policy is ArbitrationPolicy.PER_VF_FAIR
        assert ssd_vf_config().policy is ArbitrationPolicy.PER_VF_FAIR

    def test_qat_queue_ceiling_64(self):
        assert qat8970_vf_config().queue_ceiling == 64

    def test_invalid_counts_rejected(self):
        from repro.devices.sriov import VfConfig
        with pytest.raises(ConfigurationError):
            VfConfig("x", 0, ArbitrationPolicy.PER_VF_FAIR, 1, 1)


class TestMultiTenant:
    def test_cv_contrast(self):
        """Finding 15: fair VF scheduling => CV < 1%; shared FIFO >> 10%."""
        qat = MultiTenantSim(
            qat8970_vf_config(24),
            DeviceServiceModel(3.37, 1160.0),
            qat_tenant_profile(), seed=7,
        ).run(duration_s=20)
        csd = MultiTenantSim(
            dpcsd_vf_config(24),
            DeviceServiceModel(2.05, 2000.0),
            csd_tenant_profile(), seed=7,
        ).run(duration_s=20)
        assert qat.avg_cv_percent > 25.0
        assert csd.avg_cv_percent < 2.0

    def test_csd_throughput_plateau(self):
        result = MultiTenantSim(
            dpcsd_vf_config(24),
            DeviceServiceModel(2.05, 2000.0),
            csd_tenant_profile(), seed=3,
        ).run(duration_s=15)
        assert result.mean_throughput_mbps == pytest.approx(340, rel=0.1)

    def test_short_duration_rejected(self):
        sim = MultiTenantSim(dpcsd_vf_config(4),
                             DeviceServiceModel(2.0), seed=1)
        with pytest.raises(ConfigurationError):
            sim.run(duration_s=0.5)


class TestPlatform:
    def test_pcie_slot_ceiling(self):
        server = Server()
        server.attach_pcie_device(24)
        with pytest.raises(ConfigurationError):
            server.attach_pcie_device(1)

    def test_onchip_bounded_by_sockets(self):
        server = Server()
        assert server.max_onchip_accelerators == 2
        server.attach_onchip_accelerator(2)
        with pytest.raises(ConfigurationError):
            server.attach_onchip_accelerator(1)

    def test_testbed_has_all_devices(self):
        testbed = build_testbed(physical_pages=256)
        expected = {"cpu-deflate", "cpu-zstd", "cpu-snappy", "qat8970",
                    "qat4xxx", "csd2000", "dpcsd", "dpzip", "ssd"}
        assert set(testbed.device_names()) == expected

    def test_unknown_device_rejected(self):
        testbed = build_testbed(physical_pages=256)
        with pytest.raises(KeyError):
            testbed.device("dpu9000")


class TestSpecCatalog:
    def test_table1_rows(self):
        assert len(TABLE1_CDPUS) == 4
        dpzip = spec_by_name("DPZip")
        assert dpzip.spec_comp_gbps == 128.0
        assert dpzip.spec_decomp_gbps == 160.0

    def test_spec_gb_per_s(self):
        qat = spec_by_name("QAT 8970")
        assert qat.spec_comp_gb_per_s == pytest.approx(8.25)

    def test_unknown_spec_rejected(self):
        with pytest.raises(KeyError):
            spec_by_name("QAT 9999")
