"""Shared stub devices and synthetic cost models for service tests.

Timing comes entirely from :class:`DeviceCostModel` instances built
here, so scheduler/control scenarios are deterministic and wall-clock
free; the real calibrated fleet only appears in the integration tests
that need it.
"""

from repro.cluster import Cluster
from repro.hw.engine import CdpuDevice, Placement
from repro.service import (
    DeviceCostModel,
    FleetDevice,
    RatioAnchor,
    SchedulerCore,
    build_fleet,
)
from repro.sim.engine import Simulator
from repro.store import BlockCache, CompressedBlockStore


class StubDevice(CdpuDevice):
    """Placement/engine shell; timing comes from a synthetic model."""

    def __init__(self, name="stub", placement=Placement.PERIPHERAL,
                 engines=1, queue_depth=1024, power_kind=None):
        self.name = name
        self.power_kind = power_kind
        self.placement = placement
        self.engine_count = engines
        self.queue_depth = queue_depth


def flat_model(engine_per_byte_ns=0.01, submit_ns=0.0, pre_ns=0.0,
               post_ns=0.0):
    """Cost model with no size/ratio structure beyond a linear engine."""
    return DeviceCostModel(
        anchors=[RatioAnchor(ratio=1.0, overhead_ns=0.0,
                             per_byte_ns=engine_per_byte_ns)],
        submit_ns=submit_ns,
        pre_overhead_ns=pre_ns,
        post_overhead_ns=post_ns,
    )


def make_fleet(sim, count=2, per_byte=(0.01, 0.1), **kwargs):
    return [
        FleetDevice(sim, StubDevice(name=f"dev{i}"),
                    flat_model(engine_per_byte_ns=per_byte[i]), **kwargs)
        for i in range(count)
    ]


def parts_cluster(pairs, policy="cost-model", *, cache_blocks=None,
                  block_bytes=65536, **fleet_kwargs):
    """A :class:`Cluster` wired from ``(device, model)`` pairs.

    For fleets a spec cannot express (stub devices, synthetic models).
    ``fleet_kwargs`` go to :func:`build_fleet`; ``cache_blocks`` adds a
    block-store tier with a cache of that many blocks.
    """
    sim = Simulator()
    members, _ = build_fleet(sim, pairs, **fleet_kwargs)
    service = SchedulerCore(sim, members, policy)
    store = None
    if cache_blocks is not None:
        store = CompressedBlockStore(sim, service, BlockCache(cache_blocks),
                                     block_bytes=block_bytes)
    return Cluster(sim, service, store=store)
