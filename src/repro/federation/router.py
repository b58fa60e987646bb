"""The global router: one submission front over N member clusters.

A :class:`GlobalRouter` quacks like a
:class:`~repro.service.scheduler.SchedulerCore` (``.sim`` plus
``.submit(request, on_complete=..., on_drop=...)``), so the federated
driver is literally an
:class:`~repro.cluster.clients.OpenLoopClient` pointed at the router —
the per-client latency/goodput accounting is reused unchanged.

Every tenant has a *home* cluster (``tenant % members``).  A request
routed home is submitted synchronously (no fabric cost); a request
routed elsewhere pays the target's :class:`~repro.federation.spec.
LinkSpec` twice — the request payload on the way out, the (ratio-sized)
response payload on the way back — via simulator callbacks, and the
driver's completion hook sees ``arrival_ns`` restored to the pre-hop
instant so end-to-end percentiles include the fabric time.  Member
schedulers keep their own post-hop arrival stamps, so member-local
reports stay a clean local view.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import FederationError
from repro.federation.spec import ROUTING_POLICIES, LinkSpec
from repro.service.request import OffloadRequest
from repro.service.scheduler import SchedulerCore
from repro.sim.engine import Simulator
from repro.telemetry import DISABLED, Telemetry

__all__ = ["GlobalRouter", "RouterReport"]

# Argument names of the router's fabric-hop spans.
_HOP_KEYS = ("tenant", "nbytes")


class RouterReport:
    """Pure-data routing breakdown (picklable): per-member counts."""

    __slots__ = ("routing", "names", "routed", "remote",
                 "remote_request_bytes", "remote_response_bytes")

    def __init__(self, routing: str, names: tuple[str, ...],
                 routed: list[int], remote: list[int],
                 remote_request_bytes: list[int],
                 remote_response_bytes: list[int]) -> None:
        self.routing = routing
        self.names = names
        self.routed = routed
        self.remote = remote
        self.remote_request_bytes = remote_request_bytes
        self.remote_response_bytes = remote_response_bytes

    @property
    def total_routed(self) -> int:
        return sum(self.routed)

    @property
    def total_remote(self) -> int:
        return sum(self.remote)

    @property
    def remote_fraction(self) -> float:
        total = self.total_routed
        return self.total_remote / total if total else 0.0

    def rows(self) -> list[dict]:
        """One flat row per member: routed/remote counts and bytes."""
        return [
            {
                "cluster": name,
                "routed": self.routed[index],
                "remote": self.remote[index],
                "remote_fraction": (self.remote[index] / self.routed[index]
                                    if self.routed[index] else 0.0),
                "remote_request_bytes": self.remote_request_bytes[index],
                "remote_response_bytes": self.remote_response_bytes[index],
            }
            for index, name in enumerate(self.names)
        ]


class GlobalRouter:
    """Routes a federated request stream across member schedulers."""

    __slots__ = ("sim", "telemetry", "routing", "affinity_threshold",
                 "routed", "remote", "remote_request_bytes",
                 "remote_response_bytes", "_names", "_hop_names",
                 "_schedulers", "_submits", "_link_costs", "_n", "_pick")

    def __init__(self, sim: Simulator,
                 members: Sequence[tuple[str, SchedulerCore, LinkSpec]],
                 routing: str = "least-loaded",
                 affinity_threshold: float = 0.75,
                 telemetry: Telemetry = DISABLED) -> None:
        if not members:
            raise FederationError("router needs at least one member")
        if routing not in ROUTING_POLICIES:
            raise FederationError(
                f"unknown routing policy {routing!r}; "
                f"known: {list(ROUTING_POLICIES)}"
            )
        self.sim = sim
        self.telemetry = telemetry
        self.routing = routing
        self.affinity_threshold = affinity_threshold
        self._names = tuple(name for name, _, _ in members)
        self._hop_names = tuple(f"hop->{name}" for name in self._names)
        self._schedulers = [scheduler for _, scheduler, _ in members]
        # Hot-path hoists: bound submit per member, link pricing as
        # (latency_ns, 1/bandwidth) pairs.
        self._submits = [scheduler.submit for scheduler in self._schedulers]
        self._link_costs = [
            (link.latency_ns, 1.0 / link.effective_bandwidth_gbps)
            for _, _, link in members
        ]
        self._n = len(self._schedulers)
        self.routed = [0] * self._n
        self.remote = [0] * self._n
        self.remote_request_bytes = [0] * self._n
        self.remote_response_bytes = [0] * self._n
        pickers: dict[str, Callable[[int], int]] = {
            "static-pinning": self._pick_home,
            "least-loaded": self._pick_least_loaded,
            "locality-affinity": self._pick_affinity,
        }
        self._pick = pickers[routing]

    # -- target selection ------------------------------------------------------

    def _pick_home(self, home: int) -> int:
        return home

    def _pick_least_loaded(self, home: int) -> int:
        schedulers = self._schedulers
        best = 0
        best_util = schedulers[0].utilization()
        for index in range(1, self._n):
            util = schedulers[index].utilization()
            if util < best_util:
                best, best_util = index, util
        return best

    def _pick_affinity(self, home: int) -> int:
        if self._schedulers[home].utilization() <= self.affinity_threshold:
            return home
        return self._pick_least_loaded(home)

    # -- submission (SchedulerCore protocol) -----------------------------------

    def submit(self, request: OffloadRequest,
               on_complete=None, on_drop=None) -> str:
        """Route one request; local routes return the member
        scheduler's verdict, remote routes return ``'routed'`` (the
        verdict lands one fabric hop later)."""
        home = request.tenant % self._n
        target = self._pick(home)
        self.routed[target] += 1
        if target == home:
            return self._submits[target](request,
                                         on_complete=on_complete,
                                         on_drop=on_drop)
        return self._remote_submit(target, request, on_complete, on_drop)

    def _remote_submit(self, target: int, request: OffloadRequest,
                       on_complete, on_drop) -> str:
        sim = self.sim
        t0 = sim.now
        latency_ns, inv_bandwidth = self._link_costs[target]
        hop_ns = latency_ns + request.nbytes * inv_bandwidth
        self.remote[target] += 1
        self.remote_request_bytes[target] += request.nbytes
        tel = self.telemetry
        if tel.tracing:
            tel.trace.span(tel.tracks["router"], self._hop_names[target],
                           t0, t0 + hop_ns, _HOP_KEYS, request.tenant,
                           request.nbytes)
        submit = self._submits[target]

        def complete(req: OffloadRequest, device, cost) -> None:
            # Response payload: compress shrinks to ratio * nbytes,
            # decompress expands by 1 / ratio.
            if req.op == "compress":
                response_bytes = int(req.nbytes * req.ratio)
            else:
                response_bytes = int(req.nbytes / req.ratio)
            self.remote_response_bytes[target] += response_bytes

            def deliver_response() -> None:
                # Restore the pre-hop arrival so the driver's latency
                # recorder measures true end-to-end time (the member
                # scheduler already finished its own accounting with
                # the post-hop stamp).
                req.arrival_ns = t0
                if on_complete is not None:
                    on_complete(req, device, cost)
            sim.call_later(latency_ns + response_bytes * inv_bandwidth,
                           deliver_response)

        def dropped(req: OffloadRequest) -> None:
            def deliver_nack() -> None:
                req.arrival_ns = t0
                if on_drop is not None:
                    on_drop(req)
            # A shed carries no payload; the nack pays latency only.
            sim.call_later(latency_ns, deliver_nack)

        def deliver_request() -> None:
            submit(request, on_complete=complete, on_drop=dropped)

        sim.call_later(hop_ns, deliver_request)
        return "routed"

    # -- reporting -------------------------------------------------------------

    def report(self) -> RouterReport:
        return RouterReport(
            routing=self.routing,
            names=self._names,
            routed=list(self.routed),
            remote=list(self.remote),
            remote_request_bytes=list(self.remote_request_bytes),
            remote_response_bytes=list(self.remote_response_bytes),
        )
