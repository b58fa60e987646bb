"""Declarative multi-cluster federation description.

A :class:`FederationSpec` names N member clusters — each a full
:class:`~repro.cluster.spec.ClusterSpec` — plus the fabric links that
connect them and the routing policy a
:class:`~repro.federation.router.GlobalRouter` applies in front of
their schedulers.  The whole document round-trips strictly through
JSON (unknown keys raise :class:`~repro.errors.FederationSpecError`
naming the offender), so a three-datacenter serving experiment is a
checked-in ``federation.json`` away
(``repro-experiment federation --spec federation.json``).

Two deliberate restrictions keep the merged accounting honest:

* member clusters may not declare their own ``telemetry`` section —
  the federation-level :class:`~repro.cluster.spec.TelemetrySpec` owns
  the one shared trace, and each member records onto scoped
  ``<member>/...`` tracks of it;
* member clusters may not declare a ``store`` tier — the global router
  fronts scheduler submission only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.spec import ClusterSpec, TelemetrySpec
from repro.errors import ConfigurationError, FederationSpecError
from repro.interconnect.pcie import PcieLinkSpec
from repro.speccodec import Spec
from repro.sweep.spec import WorkloadSpec

__all__ = [
    "ROUTING_POLICIES",
    "FederationMemberSpec",
    "FederationSpec",
    "LinkSpec",
    "example_federation_spec",
]

#: Routing policies a :class:`FederationSpec` may declare.
ROUTING_POLICIES = ("static-pinning", "least-loaded", "locality-affinity")


class _Spec(Spec):
    __slots__ = ()
    error = FederationSpecError


@dataclass(frozen=True)
class LinkSpec(_Spec):
    """One member's attachment to the inter-cluster fabric.

    A remote hop over the link costs ``latency_ns`` plus the payload
    streamed at the link bandwidth.  Declare the bandwidth directly
    (``bandwidth_gbps``, e.g. ``12.5`` for a 100 Gb/s fabric) or
    derive it from a PCIe attachment (``pcie_generation`` +
    ``pcie_lanes``, priced by
    :class:`~repro.interconnect.pcie.PcieLinkSpec` — the CXL-ish
    "remote cluster behind a switch" shape); an explicit bandwidth
    wins when both are given.
    """

    latency_ns: float = 5_000.0
    bandwidth_gbps: float | None = None
    pcie_generation: int | None = None
    pcie_lanes: int = 16

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise FederationSpecError(
                f"link latency must be >= 0 ns, got {self.latency_ns}"
            )
        if self.bandwidth_gbps is None and self.pcie_generation is None:
            raise FederationSpecError(
                "link needs a bandwidth: declare bandwidth_gbps or a "
                "pcie_generation/pcie_lanes attachment"
            )
        if self.bandwidth_gbps is not None and self.bandwidth_gbps <= 0:
            raise FederationSpecError(
                f"link bandwidth must be > 0 GB/s, "
                f"got {self.bandwidth_gbps}"
            )
        if self.pcie_generation is not None:
            try:
                PcieLinkSpec(generation=self.pcie_generation,
                             lanes=self.pcie_lanes)
            except ConfigurationError as error:
                raise FederationSpecError(str(error)) from error

    @property
    def effective_bandwidth_gbps(self) -> float:
        """The bandwidth remote hops stream at (GB/s == bytes/ns)."""
        if self.bandwidth_gbps is not None:
            return self.bandwidth_gbps
        return PcieLinkSpec(generation=self.pcie_generation,
                            lanes=self.pcie_lanes).link_bandwidth_gbps

    def transfer_ns(self, nbytes: int) -> float:
        """One-way hop cost for an ``nbytes`` payload."""
        return self.latency_ns + nbytes / self.effective_bandwidth_gbps


@dataclass(frozen=True)
class FederationMemberSpec(_Spec):
    """One named member cluster and its fabric attachment."""

    name: str
    cluster: ClusterSpec
    link: LinkSpec = LinkSpec(bandwidth_gbps=12.5)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            # Member names become telemetry track prefixes
            # ("<member>/scheduler") and report tags; a slash would
            # collide with the scoping separator.
            raise FederationSpecError(
                f"member name must be non-empty and slash-free, "
                f"got {self.name!r}"
            )
        if self.cluster.telemetry is not None:
            raise FederationSpecError(
                f"member {self.name!r} declares its own telemetry "
                f"section; the federation-level telemetry owns the "
                f"shared trace"
            )
        if self.cluster.store is not None:
            raise FederationSpecError(
                f"member {self.name!r} declares a store tier; the "
                f"global router fronts scheduler submission only"
            )


@dataclass(frozen=True)
class FederationSpec(_Spec):
    """A whole federated serving experiment, declaratively.

    ``routing`` picks the global router policy:

    * ``static-pinning`` — every tenant is served by its home cluster
      (``tenant % len(members)``), remote traffic never happens;
    * ``least-loaded`` — each request goes to the member whose
      scheduler reports the lowest utilization (ties break in member
      declaration order), paying the target's link when it is not the
      tenant's home;
    * ``locality-affinity`` — home cluster until its utilization
      exceeds ``affinity_threshold``, then least-loaded overflow.

    ``workload`` drives the federation-wide open-loop stream (with
    optional ``population``/``diurnal`` traffic shaping); ``telemetry``
    is the single federation-level sink every member records into on
    scoped tracks.
    """

    members: tuple[FederationMemberSpec, ...]
    routing: str = "least-loaded"
    affinity_threshold: float = 0.75
    workload: WorkloadSpec = WorkloadSpec()
    telemetry: TelemetrySpec | None = None
    root_seed: int = 1234

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise FederationSpecError(
                f"a federation needs at least two member clusters, "
                f"got {len(self.members)} (use a plain ClusterSpec "
                f"for one)"
            )
        names = [member.name for member in self.members]
        duplicates = sorted({name for name in names
                             if names.count(name) > 1})
        if duplicates:
            raise FederationSpecError(
                f"duplicate member name(s) {duplicates}"
            )
        if self.routing not in ROUTING_POLICIES:
            raise FederationSpecError(
                f"unknown routing policy {self.routing!r}; "
                f"known: {list(ROUTING_POLICIES)}"
            )
        if not 0.0 < self.affinity_threshold <= 1.0:
            raise FederationSpecError(
                f"affinity threshold must be in (0, 1], "
                f"got {self.affinity_threshold}"
            )
        if self.workload.mode != "open-loop":
            raise FederationSpecError(
                f"federated serving drives an open-loop stream; "
                f"workload mode is {self.workload.mode!r}"
            )

    def member_names(self) -> tuple[str, ...]:
        return tuple(member.name for member in self.members)



def example_federation_spec() -> FederationSpec:
    """A runnable three-datacenter federation over a 100k-tenant
    heavy-tailed population with diurnal load swings — the CI smoke
    document and ``examples/federation.json``."""
    from repro.cluster.spec import DeviceSpec, FleetSpec
    from repro.workloads.population import DiurnalSpec, TenantPopulationSpec

    def cluster(*devices: DeviceSpec) -> ClusterSpec:
        return ClusterSpec(fleet=FleetSpec(devices=devices))

    return FederationSpec(
        members=(
            FederationMemberSpec(
                name="east",
                cluster=cluster(DeviceSpec("qat8970"),
                                DeviceSpec("dpzip")),
                link=LinkSpec(latency_ns=2_000.0, bandwidth_gbps=12.5),
            ),
            FederationMemberSpec(
                name="west",
                cluster=cluster(DeviceSpec("qat4xxx"),
                                DeviceSpec("dpzip")),
                link=LinkSpec(latency_ns=6_000.0, bandwidth_gbps=12.5),
            ),
            FederationMemberSpec(
                name="edge",
                cluster=cluster(DeviceSpec("cpu", algorithm="snappy",
                                           threads=8)),
                link=LinkSpec(latency_ns=12_000.0,
                              pcie_generation=4, pcie_lanes=4),
            ),
        ),
        routing="locality-affinity",
        affinity_threshold=0.7,
        workload=WorkloadSpec(
            mode="open-loop", duration_ns=5e5, offered_gbps=24.0,
            population=TenantPopulationSpec(tenants=100_000,
                                            distribution="pareto",
                                            alpha=1.1),
            diurnal=DiurnalSpec(period_ns=2.5e5, amplitude=0.4),
        ),
        telemetry=TelemetrySpec(trace=True, metrics_interval_ns=5e4),
        root_seed=71,
    )
