"""repro.federation — multi-cluster serving and distributed sweeps.

Three layers scale the single-cluster stack out:

* *federated serving* — a :class:`FederationSpec` assembles N member
  clusters on one shared simulator with a :class:`GlobalRouter` in
  front of their schedulers (static-pinning / least-loaded /
  locality-affinity routing; remote hops priced by per-member
  :class:`LinkSpec` fabric links), producing one merged
  :class:`~repro.cluster.result.RunResult` plus per-cluster and
  cross-cluster breakdowns and a single multi-track trace;
* *million-user traffic* — the federation workload reuses
  :mod:`repro.workloads.population` (heavy-tailed tenant populations,
  diurnal rate modulation) declared straight in the JSON document;
* *distributed sweeps* — :mod:`repro.federation.dispatch` runs
  :class:`~repro.sweep.runner.SweepRunner` grids over authenticated
  socket workers (forked locally or pre-started remotely), row-for-row
  byte-identical to the inline runner regardless of worker count, join
  order, or mid-run worker death.
"""

from repro.federation.dispatch import (
    PROTOCOL_VERSION,
    SocketWorkerPool,
    serve_worker,
    spawn_local_workers,
)
from repro.federation.result import FederationResult, merge_service_reports
from repro.federation.router import GlobalRouter, RouterReport
from repro.federation.session import Federation
from repro.federation.spec import (
    ROUTING_POLICIES,
    FederationMemberSpec,
    FederationSpec,
    LinkSpec,
    example_federation_spec,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ROUTING_POLICIES",
    "Federation",
    "FederationMemberSpec",
    "FederationResult",
    "FederationSpec",
    "GlobalRouter",
    "LinkSpec",
    "RouterReport",
    "SocketWorkerPool",
    "example_federation_spec",
    "merge_service_reports",
    "serve_worker",
    "spawn_local_workers",
]
