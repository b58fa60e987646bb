"""Compression offload service over a heterogeneous CDPU fleet.

Maps the paper's placement taxonomy (Figure 1: CPU software, peripheral,
on-chip, in-storage) onto a serving layer with an explicit control
plane / data plane split: open-loop request streams tagged with SLO
classes, pluggable placement policies, batched submission, QoS
arbitration per device (Figure 20), CPU-software spill, and a fleet
controller for dynamic reconfiguration (hotplug, brown-out, power
capping).

One object serves a run: :class:`SchedulerCore` takes every submission,
owns admission and deadline-aware dispatch over the members
:func:`build_fleet` wraps, and builds the run's :class:`ServiceReport`.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.control import FleetController
from repro.service.fleet import (
    Batcher,
    DeviceState,
    FleetDevice,
    build_fleet,
    default_fleet,
)
from repro.service.model import (
    DeviceCostModel,
    ModeledCost,
    RatioAnchor,
    calibrated,
    calibrated_ops,
)
from repro.service.policy import (
    POLICIES,
    CostModelPolicy,
    DeadlineAware,
    DispatchPolicy,
    RoundRobin,
    ShortestQueue,
    StaticPinning,
    make_policy,
)
from repro.service.request import (
    BEST_EFFORT,
    INTERACTIVE,
    SLO_CLASSES,
    THROUGHPUT,
    OffloadRequest,
    OpenLoopStream,
    SloClass,
    make_slo_class,
)
from repro.service.scheduler import (
    SchedulerCore,
    ServiceMetrics,
    ServiceReport,
    SloStats,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BEST_EFFORT",
    "Batcher",
    "CostModelPolicy",
    "DeadlineAware",
    "DeviceCostModel",
    "DeviceState",
    "DispatchPolicy",
    "FleetController",
    "FleetDevice",
    "INTERACTIVE",
    "ModeledCost",
    "OffloadRequest",
    "OpenLoopStream",
    "POLICIES",
    "RatioAnchor",
    "RoundRobin",
    "SLO_CLASSES",
    "SchedulerCore",
    "ServiceMetrics",
    "ServiceReport",
    "ShortestQueue",
    "SloClass",
    "SloStats",
    "StaticPinning",
    "THROUGHPUT",
    "build_fleet",
    "calibrated",
    "calibrated_ops",
    "default_fleet",
    "make_policy",
    "make_slo_class",
]
