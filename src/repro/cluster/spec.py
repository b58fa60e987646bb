"""Declarative cluster description: typed, serializable, validating.

A :class:`ClusterSpec` is the single document describing a serving
cluster — fleet composition, placement policy, admission control, the
SLO mix, block-store geometry, a power budget and a reconfiguration
schedule.  It is what three PRs of experiments were hand-wiring one
free function at a time: the same stack, now written down once and
buildable from JSON (``repro-experiment cluster --spec cluster.json``).

Every spec type round-trips losslessly through ``to_dict`` /
``from_dict`` (and therefore JSON).  Decoding is the strict,
type-hint-driven codec of :mod:`repro.speccodec`: an unknown key, a
missing required key or a wrong-typed value raises
:class:`~repro.errors.ClusterSpecError` naming the dotted path of the
offending field, because a typo'd knob that silently reverts to its
default is a misconfiguration the experiment sweep will never notice.
Range and cross-field checks live in each class's ``__post_init__``.

The spec layer is deliberately free of simulator state: building the
live objects (devices, scheduler, store, controller) from a spec is
:class:`~repro.cluster.session.Cluster`'s job.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Any

from repro.errors import ClusterSpecError
from repro.speccodec import Spec
from repro.telemetry.analysis import SloObjective

#: Device kinds a :class:`DeviceSpec` may name — one per placement
#: column of the paper's Figure 1 (the session layer maps each to its
#: :mod:`repro.hw` constructor).
DEVICE_KINDS = ("cpu", "qat8970", "qat4xxx", "dpzip")

#: Ops a fleet may calibrate cost models for.
CALIBRATED_OPS = ("compress", "decompress")

#: Reconfiguration actions a :class:`ReconfigEvent` may schedule.
RECONFIG_ACTIONS = ("brown-out", "restore", "unplug", "power-cap")


class _Spec(Spec):
    __slots__ = ()
    error = ClusterSpecError


# -- dotted-path overrides -----------------------------------------------------
#
# The sweep layer (:mod:`repro.sweep`) addresses individual knobs of a
# spec document by dotted path — ``store.cache_blocks``,
# ``fleet.devices[1].threads``, ``workload.offered_gbps`` — and
# resolves each grid point by setting those paths on the JSON-shaped
# dict before re-validating through ``from_dict``.  The grammar:
#
#   path     := segment ("." segment)*
#   segment  := name ("[" index "]")*
#
# Every addressed key must already exist in the document (``to_dict``
# emits every field, so any valid knob does); a typo'd segment raises
# :class:`ClusterSpecError` naming the full path and the segment that
# failed, instead of silently creating a key ``from_dict`` would then
# reject with less context.

_SEGMENT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[[0-9]+\])*)$")


def parse_override_path(path: str) -> list[str | int]:
    """Split a dotted override path into dict keys and list indices."""
    if not isinstance(path, str) or not path:
        raise ClusterSpecError(f"override path must be a non-empty "
                               f"string, got {path!r}")
    steps: list[str | int] = []
    for segment in path.split("."):
        match = _SEGMENT_RE.match(segment)
        if match is None:
            raise ClusterSpecError(
                f"bad segment {segment!r} in override path {path!r}; "
                f"expected name or name[index]"
            )
        steps.append(match.group(1))
        for index in re.findall(r"\[([0-9]+)\]", match.group(2)):
            steps.append(int(index))
    return steps


def _describe_step(step: str | int) -> str:
    return f"index [{step}]" if isinstance(step, int) else f"key {step!r}"


def apply_override(data: dict, path: str, value: Any) -> None:
    """Set one dotted ``path`` to ``value`` inside a spec dict, in place.

    ``value`` is deep-copied before insertion: a later override may
    descend *into* an inserted subtree (``fleet.devices`` set by one
    sweep axis, ``fleet.devices[0].threads`` by another), and that
    must never mutate the caller's original object.

    Raises :class:`ClusterSpecError` naming ``path`` and the failing
    segment when the path addresses a key that does not exist, an index
    out of range, or tries to descend into a scalar/null.
    """
    value = copy.deepcopy(value)
    steps = parse_override_path(path)
    target: Any = data
    for position, step in enumerate(steps[:-1]):
        target = _descend(target, step, path)
        if not isinstance(target, (dict, list)):
            where = _join_steps(steps[:position + 1])
            raise ClusterSpecError(
                f"override path {path!r} descends into "
                f"{type(target).__name__} at {where!r}; only mappings "
                f"and lists can be traversed"
            )
    last = steps[-1]
    if isinstance(target, dict):
        if not isinstance(last, str) or last not in target:
            raise ClusterSpecError(
                f"override path {path!r} addresses unknown "
                f"{_describe_step(last)}; allowed here: {sorted(target)}"
            )
        target[last] = value
    elif isinstance(target, list):
        if not isinstance(last, int) or not 0 <= last < len(target):
            raise ClusterSpecError(
                f"override path {path!r} addresses {_describe_step(last)} "
                f"outside a list of length {len(target)}"
            )
        target[last] = value
    else:
        raise ClusterSpecError(
            f"override path {path!r} ends inside "
            f"{type(target).__name__}; nothing to set"
        )


def _descend(container: Any, step: str | int, path: str) -> Any:
    if isinstance(container, dict):
        if not isinstance(step, str) or step not in container:
            raise ClusterSpecError(
                f"override path {path!r} addresses unknown "
                f"{_describe_step(step)}; allowed here: {sorted(container)}"
            )
        return container[step]
    if isinstance(container, list):
        if not isinstance(step, int) or not 0 <= step < len(container):
            raise ClusterSpecError(
                f"override path {path!r} addresses {_describe_step(step)} "
                f"outside a list of length {len(container)}"
            )
        return container[step]
    raise ClusterSpecError(
        f"override path {path!r} descends into "
        f"{type(container).__name__} at {_describe_step(step)}; only "
        f"mappings and lists can be traversed"
    )


def _join_steps(steps: list[str | int]) -> str:
    joined = ""
    for step in steps:
        joined += f"[{step}]" if isinstance(step, int) \
            else (f".{step}" if joined else step)
    return joined


@dataclass(frozen=True)
class DeviceSpec(_Spec):
    """One fleet member, named by device kind.

    ``name`` overrides the device's default name — required when a
    fleet carries two devices of the same kind, because the fleet
    builder rejects duplicate names.  ``algorithm``/``threads`` only
    apply to the ``cpu`` kind (the software baseline is parameterized;
    the ASIC models are fixed silicon).
    """

    kind: str
    name: str | None = None
    algorithm: str = "deflate"
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in DEVICE_KINDS:
            raise ClusterSpecError(
                f"unknown device kind {self.kind!r}; "
                f"known: {list(DEVICE_KINDS)}"
            )
        if self.threads is not None and self.threads < 1:
            raise ClusterSpecError(
                f"device {self.name or self.kind!r}: threads must be "
                f">= 1, got {self.threads}"
            )

    def cache_key(self) -> tuple:
        """Calibration-cache key: everything that affects device timing."""
        return (self.kind, self.algorithm, self.threads)


@dataclass(frozen=True)
class FleetSpec(_Spec):
    """Fleet composition plus the shared submission-path knobs."""

    devices: tuple[DeviceSpec, ...]
    spill: DeviceSpec | None = None
    batch_size: int = 4
    batch_timeout_ns: float | None = 20_000.0
    queue_limit: int | None = None
    fair_share_tenants: int | None = None
    #: Which ops get calibrated cost models ("compress" alone for
    #: write-only serving; add "decompress" for mixed-op/store traffic).
    ops: tuple[str, ...] = ("compress",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.devices:
            raise ClusterSpecError("fleet must contain at least one device")
        if self.batch_size < 1:
            raise ClusterSpecError(
                f"batch size must be >= 1, got {self.batch_size}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ClusterSpecError(
                f"queue limit must be >= 1, got {self.queue_limit}"
            )
        unknown = sorted(set(self.ops) - set(CALIBRATED_OPS))
        if not self.ops or unknown:
            raise ClusterSpecError(
                f"fleet ops {list(self.ops)} invalid; "
                f"choose from {list(CALIBRATED_OPS)}"
            )


@dataclass(frozen=True)
class AdmissionSpec(_Spec):
    """Admission-control thresholds and EWMA smoothing."""

    spill_threshold: float = 0.70
    shed_threshold: float = 0.95
    ewma_alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.spill_threshold <= self.shed_threshold:
            raise ClusterSpecError(
                f"need 0 <= spill ({self.spill_threshold}) <= "
                f"shed ({self.shed_threshold})"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ClusterSpecError(
                f"ewma_alpha {self.ewma_alpha} outside (0, 1]"
            )


@dataclass(frozen=True)
class SloSpec(_Spec):
    """One SLO class: priority tier plus relative deadline budget.

    ``deadline_ns`` may be ``inf`` (scavenger traffic with no deadline);
    Python's ``json`` round-trips that as the ``Infinity`` literal.
    """

    name: str
    tier: int
    deadline_ns: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterSpecError("SLO class needs a non-empty name")
        if self.tier < 0:
            raise ClusterSpecError(f"SLO tier must be >= 0, got {self.tier}")
        if not self.deadline_ns > 0:
            raise ClusterSpecError(
                f"SLO deadline must be > 0, got {self.deadline_ns}"
            )

    @classmethod
    def of(cls, name: str) -> "SloSpec":
        """Spec for one of the standard classes by name."""
        from repro.service.request import make_slo_class
        return cls.from_class(make_slo_class(name))

    @classmethod
    def from_class(cls, slo) -> "SloSpec":
        """Spec mirroring a :class:`~repro.service.request.SloClass`."""
        return cls(name=slo.name, tier=slo.tier, deadline_ns=slo.deadline_ns)

    def to_class(self):
        """The live :class:`~repro.service.request.SloClass`."""
        from repro.service.request import SloClass
        return SloClass(name=self.name, tier=self.tier,
                        deadline_ns=self.deadline_ns)

    @classmethod
    def _named(cls) -> dict[str, "SloSpec"]:
        """The standard classes a document may name with a bare string
        (``"read_slo": "interactive"``), the short form for hand-written
        specs."""
        from repro.service.request import SLO_CLASSES
        return {name: cls.from_class(slo)
                for name, slo in SLO_CLASSES.items()}


@dataclass(frozen=True)
class SloShare(_Spec):
    """One weighted entry of an SLO mix."""

    slo: SloSpec
    weight: float

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ClusterSpecError(
                f"SLO-mix weight must be > 0, got {self.weight}"
            )


@dataclass(frozen=True)
class StoreSpec(_Spec):
    """Block-store geometry plus decompressed-block cache sizing.

    ``client_window``/``client_think_ns`` declare closed-loop store
    serving: a store client built from this spec keeps at most
    ``client_window`` operations in flight per connection and thinks
    ``client_think_ns`` between completions (``None`` window = the
    open-loop Poisson default).
    """

    block_bytes: int = 65536
    segment_bytes: int | None = None
    cache_blocks: int = 512
    ghost_blocks: int | None = None
    read_slo: SloSpec = SloSpec("interactive", tier=0,
                                deadline_ns=200_000.0)
    write_slo: SloSpec = SloSpec("throughput", tier=1,
                                 deadline_ns=2_000_000.0)
    client_window: int | None = None
    client_think_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ClusterSpecError(
                f"block size must be > 0, got {self.block_bytes}"
            )
        if self.segment_bytes is not None and self.segment_bytes <= 0:
            raise ClusterSpecError(
                f"segment size must be > 0, got {self.segment_bytes}"
            )
        if self.cache_blocks < 0:
            raise ClusterSpecError(
                f"cache size must be >= 0, got {self.cache_blocks}"
            )
        if self.ghost_blocks is not None and self.ghost_blocks < 0:
            raise ClusterSpecError(
                f"ghost cache size must be >= 0, got {self.ghost_blocks}"
            )
        if self.client_window is not None and self.client_window < 1:
            raise ClusterSpecError(
                f"store client window must be >= 1, "
                f"got {self.client_window}"
            )
        if self.client_think_ns < 0:
            raise ClusterSpecError(
                f"store client think time must be >= 0, "
                f"got {self.client_think_ns}"
            )


@dataclass(frozen=True)
class ReconfigEvent(_Spec):
    """One scheduled fleet-reconfiguration action.

    ``action`` is one of :data:`RECONFIG_ACTIONS`; ``device`` names the
    target fleet member (not used by ``power-cap``), ``speed_factor``
    parameterizes ``brown-out``, ``drain`` selects graceful vs yank for
    ``unplug``, and ``budget_w`` is the ``power-cap`` wattage budget.
    """

    at_ns: float
    action: str
    device: str | None = None
    speed_factor: float = 1.0
    drain: bool = True
    budget_w: float | None = None

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ClusterSpecError(
                f"reconfiguration time must be >= 0, got {self.at_ns}"
            )
        if self.action not in RECONFIG_ACTIONS:
            raise ClusterSpecError(
                f"unknown reconfiguration action {self.action!r}; "
                f"known: {list(RECONFIG_ACTIONS)}"
            )
        if self.action == "power-cap":
            if self.budget_w is None or self.budget_w <= 0:
                raise ClusterSpecError(
                    f"power-cap event needs budget_w > 0, "
                    f"got {self.budget_w}"
                )
        elif not self.device:
            raise ClusterSpecError(
                f"{self.action} event needs a target device name"
            )
        if self.action == "brown-out" and not 0.0 < self.speed_factor <= 1.0:
            raise ClusterSpecError(
                f"brown-out speed factor {self.speed_factor} outside (0, 1]"
            )


@dataclass(frozen=True)
class TelemetrySpec(_Spec):
    """What a cluster run records — and monitors — about itself.

    ``trace`` turns on per-request span recording into a bounded
    flight recorder of ``trace_capacity`` events (oldest dropped
    first); ``metrics_interval_ns`` enables time-series sampling of
    the metrics registry at that simulated-time period.  Both default
    off — a spec without a telemetry section runs the untouched
    zero-cost path.

    ``objectives`` declares SLO monitors
    (:class:`~repro.telemetry.analysis.SloObjective`) burn-rate-
    evaluated over the sampled series; they join the default monitors
    the session derives from the spec (shed ceiling, per-class miss
    budgets, the power cap) in ``RunResult.health()``.
    """

    trace: bool = False
    trace_capacity: int = 262_144
    metrics_interval_ns: float | None = None
    objectives: tuple[SloObjective, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if self.trace_capacity < 1:
            raise ClusterSpecError(
                f"trace capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.metrics_interval_ns is not None \
                and not self.metrics_interval_ns > 0:
            raise ClusterSpecError(
                f"metrics interval must be > 0 ns, "
                f"got {self.metrics_interval_ns}"
            )
        names = [objective.name for objective in self.objectives]
        duplicates = sorted({name for name in names
                             if names.count(name) > 1})
        if duplicates:
            raise ClusterSpecError(
                f"duplicate SLO objective name(s) {duplicates}"
            )

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics_interval_ns is not None


@dataclass(frozen=True)
class ClusterSpec(_Spec):
    """The whole cluster, declaratively.

    ``slo_mix`` is the default mix clients built from keyword arguments
    draw request classes from (a client given an explicit stream keeps
    that stream's mix).  ``power_budget_w`` caps the fleet's active
    draw from t=0; ``reconfig`` schedules mid-run membership/derating
    events.  ``store`` attaches the compressed block-store tier.
    """

    fleet: FleetSpec
    policy: str = "cost-model"
    admission: AdmissionSpec | None = None
    pending_limit: int | None = None
    slo_mix: tuple[SloShare, ...] | None = None
    store: StoreSpec | None = None
    power_budget_w: float | None = None
    reconfig: tuple[ReconfigEvent, ...] = ()
    telemetry: TelemetrySpec | None = None

    def __post_init__(self) -> None:
        if self.slo_mix is not None:
            object.__setattr__(self, "slo_mix", tuple(self.slo_mix))
            if not self.slo_mix:
                raise ClusterSpecError("slo_mix must not be empty")
        object.__setattr__(self, "reconfig", tuple(self.reconfig))
        from repro.service.policy import POLICIES
        if self.policy not in POLICIES:
            raise ClusterSpecError(
                f"unknown dispatch policy {self.policy!r}; "
                f"valid policies: {sorted(POLICIES)}"
            )
        if self.pending_limit is not None and self.pending_limit < 0:
            raise ClusterSpecError(
                f"pending limit must be >= 0, got {self.pending_limit}"
            )
        if self.power_budget_w is not None and self.power_budget_w <= 0:
            raise ClusterSpecError(
                f"power budget must be > 0, got {self.power_budget_w}"
            )

    def with_overrides(self, overrides: dict[str, Any]) -> "ClusterSpec":
        """A copy with dotted-path ``overrides`` applied and re-validated.

        >>> spec = default_cluster_spec(store=True)
        >>> spec.with_overrides({"store.cache_blocks": 64}).store.cache_blocks
        64
        """
        data = self.to_dict()
        for path, value in overrides.items():
            apply_override(data, path, value)
        return ClusterSpec.from_dict(data)


def default_cluster_spec(policy: str = "cost-model",
                         spill: bool = True,
                         store: bool = False) -> ClusterSpec:
    """The paper's full placement mix as a spec: one device per
    Figure 1 column, a snappy CPU spill reserve, EWMA admission."""
    return ClusterSpec(
        fleet=FleetSpec(
            devices=(
                DeviceSpec("cpu"),
                DeviceSpec("qat8970"),
                DeviceSpec("qat4xxx"),
                DeviceSpec("dpzip"),
            ),
            spill=(DeviceSpec("cpu", algorithm="snappy", threads=16)
                   if spill else None),
            ops=("compress", "decompress") if store else ("compress",),
        ),
        policy=policy,
        admission=AdmissionSpec(spill_threshold=0.80, shed_threshold=0.97,
                                ewma_alpha=0.3),
        store=StoreSpec() if store else None,
    )
