"""Declarative sweep descriptions: a base spec plus named axes.

The paper's insights come from parameter grids — placement x codec x
tenancy x power across Figures 11-20 — and every serving experiment in
:mod:`repro.experiments` is the same shape: a base cluster, a handful
of knobs, the full cross product.  :class:`SweepSpec` writes that
shape down once:

* a base document: one :class:`~repro.cluster.spec.ClusterSpec` plus a
  :class:`WorkloadSpec` (what traffic drives each point);
* named :class:`SweepAxis` entries, each a list of labelled points
  that override dotted paths of the base document
  (``store.cache_blocks``, ``fleet.devices[1].threads``,
  ``workload.offered_gbps`` — see
  :func:`repro.cluster.spec.apply_override` for the grammar).  An axis
  built with :meth:`SweepAxis.zipped` advances several paths in
  lockstep (one point per row) instead of contributing a product
  dimension;
* :class:`SweepFilter` entries that drop grid points whose coordinates
  match (e.g. skip cache sweeps at ``read_fraction=0``).

:meth:`SweepSpec.expand` takes the cross product of the axes in
declaration order (last axis fastest, like nested ``for`` loops),
applies each point's overrides to the base document, re-validates
through the strict ``from_dict`` layer, and returns fully-resolved
:class:`SweepPoint` instances — each carrying its axis coordinates, a
stable content hash of the resolved document, and the stream seed
derived from ``root_seed``.  Everything round-trips through JSON, so a
whole experiment is a checked-in ``sweep.json`` instead of a Python
module.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.spec import ClusterSpec, apply_override
from repro.errors import ClusterSpecError, ReproError, SweepSpecError
from repro.speccodec import Spec, to_jsonable
from repro.workloads.population import DiurnalSpec, TenantPopulationSpec

#: Traffic shapes a :class:`WorkloadSpec` may declare.
WORKLOAD_MODES = ("open-loop", "closed-loop", "store")

#: Result-row columns the sweep layer owns; axes may not shadow them.
RESERVED_COLUMNS = ("point", "spec_hash", "seed")

#: Scalar types an axis point label may carry (they become row values).
_LABEL_TYPES = (str, int, float, bool)


class _Spec(Spec):
    # Malformed sweep documents raise the cluster layer's error; range
    # checks and grids that do not resolve raise SweepSpecError.
    __slots__ = ()
    error = ClusterSpecError


@dataclass(frozen=True)
class WorkloadSpec(_Spec):
    """What traffic drives one cluster run.

    ``mode`` picks the client shape (``open-loop`` Poisson stream,
    ``closed-loop`` windowed connections, or mixed GET/PUT ``store``
    traffic; the last requires the cluster spec to carry a ``store``
    section).  ``seed_offset`` shifts this workload's stream seed
    relative to the sweep's root seed — sweep it as an axis (or set
    ``SweepSpec.replicates``) to get decorrelated replicates, leave it
    at 0 so every grid point sees identical arrivals (paired
    comparisons).

    ``population`` replaces the uniform ``tenants`` draw with a
    heavy-tailed tenant population
    (:class:`~repro.workloads.population.TenantPopulationSpec`) and
    ``diurnal`` modulates the arrival rate over simulated time; both
    are open-loop-only traffic shaping.
    """

    mode: str = "open-loop"
    duration_ns: float = 2e6
    offered_gbps: float = 36.0
    tenants: int = 4
    seed_offset: int = 0
    #: Closed-loop shape: connection pool geometry.
    clients: int = 4
    window: int = 8
    think_ns: float = 5_000.0
    #: Store shape: op mix and logical block space.
    read_fraction: float = 0.8
    blocks: int = 512
    zipf_theta: float = 0.99
    #: Open-loop traffic shaping: heavy-tail tenants, rate modulation.
    population: TenantPopulationSpec | None = None
    diurnal: DiurnalSpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in WORKLOAD_MODES:
            raise SweepSpecError(
                f"unknown workload mode {self.mode!r}; "
                f"known: {list(WORKLOAD_MODES)}"
            )
        if self.duration_ns <= 0:
            raise SweepSpecError(
                f"workload duration must be > 0, got {self.duration_ns}"
            )
        if self.offered_gbps <= 0:
            raise SweepSpecError(
                f"offered load must be > 0, got {self.offered_gbps}"
            )
        if self.tenants < 1:
            raise SweepSpecError(
                f"need at least one tenant, got {self.tenants}"
            )
        if self.clients < 1:
            raise SweepSpecError(
                f"need at least one closed-loop client, got {self.clients}"
            )
        if self.window < 1:
            raise SweepSpecError(
                f"closed-loop window must be >= 1, got {self.window}"
            )
        if self.think_ns < 0:
            raise SweepSpecError(
                f"think time must be >= 0, got {self.think_ns}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise SweepSpecError(
                f"read fraction {self.read_fraction} outside [0, 1]"
            )
        if self.blocks < 1:
            raise SweepSpecError(
                f"need at least one logical block, got {self.blocks}"
            )
        if self.mode != "open-loop" and (self.population is not None
                                         or self.diurnal is not None):
            raise SweepSpecError(
                f"population/diurnal traffic shaping applies to "
                f"open-loop workloads only; mode is {self.mode!r}"
            )


@dataclass(frozen=True)
class AxisPoint(_Spec):
    """One labelled point of an axis: a set of dotted-path overrides.

    Override values are normalized to JSON shapes at construction
    (spec dataclasses become dicts, tuples become lists), so a point
    may carry e.g. a tuple of :class:`~repro.cluster.spec.DeviceSpec`
    directly and the JSON round-trip identity still holds.
    """

    label: Any
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.label, _LABEL_TYPES):
            raise SweepSpecError(
                f"axis point label must be a JSON scalar, "
                f"got {type(self.label).__name__}"
            )
        if not isinstance(self.overrides, dict) or not self.overrides:
            raise SweepSpecError(
                f"axis point {self.label!r} needs a non-empty mapping "
                f"of dotted paths to values"
            )
        for path in self.overrides:
            if not isinstance(path, str) or not path:
                raise SweepSpecError(
                    f"axis point {self.label!r}: override paths must be "
                    f"non-empty strings, got {path!r}"
                )
        object.__setattr__(self, "overrides", to_jsonable(self.overrides))


@dataclass(frozen=True)
class SweepAxis(_Spec):
    """One named sweep dimension: an ordered list of labelled points.

    Build one with :meth:`over` (one dotted path, one point per value),
    :meth:`zipped` (several paths advanced in lockstep — the zip), or
    directly from :class:`AxisPoint` entries for irregular grids.
    """

    name: str
    points: tuple[AxisPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.name:
            raise SweepSpecError("axis needs a non-empty name")
        if self.name in RESERVED_COLUMNS:
            raise SweepSpecError(
                f"axis name {self.name!r} is reserved for sweep result "
                f"columns; reserved: {list(RESERVED_COLUMNS)}"
            )
        if not self.points:
            raise SweepSpecError(
                f"axis {self.name!r} needs at least one point"
            )
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            raise SweepSpecError(
                f"axis {self.name!r} has duplicate point labels "
                f"{sorted({x for x in labels if labels.count(x) > 1})}; "
                f"labels identify points in result rows"
            )

    @classmethod
    def over(cls, name: str, path: str, values: Any,
             labels: Any = None) -> "SweepAxis":
        """One point per value of a single dotted ``path``.

        ``labels`` (optional, same length) names the points in result
        rows; by default each value labels itself, so sweeping a scalar
        knob tags rows with the actual value.
        """
        values = tuple(values)
        if labels is None:
            labels = values
        labels = tuple(labels)
        if len(labels) != len(values):
            raise SweepSpecError(
                f"axis {name!r}: {len(labels)} labels for "
                f"{len(values)} values"
            )
        return cls(name, tuple(
            AxisPoint(label=label, overrides={path: value})
            for label, value in zip(labels, values)))

    @classmethod
    def zipped(cls, name: str, paths: Any, rows: Any,
               labels: Any = None) -> "SweepAxis":
        """Advance several ``paths`` in lockstep: one point per row.

        ``rows`` is a sequence of value tuples, each as long as
        ``paths``.  This is the zip combinator — the axis contributes
        ``len(rows)`` points, not a product.
        """
        paths = tuple(paths)
        rows = tuple(tuple(row) for row in rows)
        if not paths:
            raise SweepSpecError(f"axis {name!r}: zipped needs paths")
        for row in rows:
            if len(row) != len(paths):
                raise SweepSpecError(
                    f"axis {name!r}: row {row!r} has {len(row)} values "
                    f"for {len(paths)} paths"
                )
        if labels is None:
            labels = tuple("/".join(str(value) for value in row)
                           for row in rows)
        labels = tuple(labels)
        if len(labels) != len(rows):
            raise SweepSpecError(
                f"axis {name!r}: {len(labels)} labels for "
                f"{len(rows)} rows"
            )
        return cls(name, tuple(
            AxisPoint(label=label, overrides=dict(zip(paths, row)))
            for label, row in zip(labels, rows)))


@dataclass(frozen=True)
class SweepFilter(_Spec):
    """Excludes grid points whose coordinates match ``when``.

    ``when`` maps axis names to a label or a list of labels; a point
    matching *every* entry is dropped from the grid.  Several filters
    OR together (any match excludes).
    """

    when: dict[str, Any]

    def __post_init__(self) -> None:
        if not isinstance(self.when, dict) or not self.when:
            raise SweepSpecError(
                "filter needs a non-empty {axis: label(s)} mapping"
            )

    def matches(self, coords: dict[str, Any]) -> bool:
        for axis, selector in self.when.items():
            value = coords[axis]
            if isinstance(selector, (list, tuple)):
                if value not in selector:
                    return False
            elif value != selector:
                return False
        return True


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point, ready to run.

    ``coords`` tags result rows (axis name -> point label, in axis
    declaration order); ``spec_hash`` is a stable content hash of the
    resolved document (same resolved spec => same hash, in any process
    on any platform); ``seed`` is the stream seed the runner hands the
    workload, derived from the sweep's root seed.
    """

    index: int
    coords: dict[str, Any]
    cluster: ClusterSpec
    workload: WorkloadSpec
    spec_hash: str
    seed: int

    def describe(self) -> str:
        """Short human-readable tag for progress lines and errors."""
        coords = ", ".join(f"{axis}={label}"
                           for axis, label in self.coords.items())
        return f"point {self.index}" + (f" ({coords})" if coords else "")


def document_hash(document: dict) -> str:
    """Stable 12-hex-digit content hash of a JSON-shaped document."""
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class SweepSpec(_Spec):
    """A whole experiment, declaratively: base document, axes, filters.

    ``root_seed`` anchors every point's stream seed (see
    :class:`WorkloadSpec.seed_offset`), so one number reproduces the
    entire sweep — serial or parallel.

    ``replicates=N`` runs every grid point N times with decorrelated
    arrivals: an implicit innermost ``replicate`` axis shifts
    ``workload.seed_offset`` by 0..N-1, and
    :meth:`~repro.sweep.result.SweepResult.rows` aggregates the
    replicate group into ``mean``/``stddev`` columns.
    """

    cluster: ClusterSpec
    workload: WorkloadSpec = WorkloadSpec()
    axes: tuple[SweepAxis, ...] = ()
    filters: tuple[SweepFilter, ...] = ()
    root_seed: int = 1234
    replicates: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "filters", tuple(self.filters))
        names = [axis.name for axis in self.axes]
        duplicates = sorted({name for name in names
                             if names.count(name) > 1})
        if duplicates:
            raise SweepSpecError(
                f"duplicate axis name(s) {duplicates}; every axis "
                f"needs a distinct name"
            )
        for filt in self.filters:
            unknown = sorted(set(filt.when) - set(names))
            if unknown:
                raise SweepSpecError(
                    f"filter names unknown axis(es) {unknown}; "
                    f"axes: {sorted(names)}"
                )
        if self.replicates < 1:
            raise SweepSpecError(
                f"replicates must be >= 1, got {self.replicates}"
            )
        if self.replicates > 1 and "replicate" in names:
            raise SweepSpecError(
                "replicates > 1 adds an implicit 'replicate' axis; "
                "rename the explicit axis of that name (or drop "
                "replicates and keep your own seed_offset axis)"
            )

    # -- expansion -------------------------------------------------------------

    def base_document(self) -> dict:
        """The JSON-shaped base: cluster fields plus a workload section."""
        document = self.cluster.to_dict()
        document["workload"] = self.workload.to_dict()
        return document

    def grid_size(self) -> int:
        """Unfiltered grid size (product of axis lengths)."""
        size = 1
        for axis in self._effective_axes():
            size *= len(axis.points)
        return size

    def _effective_axes(self) -> tuple[SweepAxis, ...]:
        """Declared axes plus the implicit innermost replicate axis.

        Each replicate shifts the base workload's ``seed_offset`` by
        its own index, so replicate r of every grid point shares one
        arrival sequence (paired across the grid) while r and r+1 are
        decorrelated.
        """
        if self.replicates <= 1:
            return self.axes
        base = self.workload.seed_offset
        replicate_axis = SweepAxis.over(
            "replicate", "workload.seed_offset",
            tuple(base + r for r in range(self.replicates)),
            labels=tuple(range(self.replicates)),
        )
        return self.axes + (replicate_axis,)

    def expand(self) -> tuple[SweepPoint, ...]:
        """The deterministic grid of fully-resolved points.

        Product over axes in declaration order, last axis fastest
        (replicates innermost of all); filtered points are dropped
        before indices are assigned, so ``point.index`` is the
        position in the runnable grid.
        """
        axes = self._effective_axes()
        points: list[SweepPoint] = []
        for combo in _product([axis.points for axis in axes]):
            coords = {axis.name: point.label
                      for axis, point in zip(axes, combo)}
            if any(filt.matches(coords) for filt in self.filters):
                continue
            document = self.base_document()
            for axis_point in combo:
                for path, value in axis_point.overrides.items():
                    try:
                        apply_override(document, path, value)
                    except ClusterSpecError as error:
                        raise SweepSpecError(
                            f"sweep point {coords}: {error}"
                        ) from error
            workload_data = document.pop("workload")
            try:
                workload = WorkloadSpec.from_dict(workload_data)
                cluster = ClusterSpec.from_dict(document)
            except ReproError as error:
                raise SweepSpecError(
                    f"sweep point {coords} resolves to an invalid "
                    f"spec: {error}"
                ) from error
            if workload.mode == "store" and cluster.store is None:
                raise SweepSpecError(
                    f"sweep point {coords} declares store traffic but "
                    f"its cluster spec has no store section"
                )
            document["workload"] = workload_data
            points.append(SweepPoint(
                index=len(points),
                coords=coords,
                cluster=cluster,
                workload=workload,
                spec_hash=document_hash(document),
                seed=self.root_seed + workload.seed_offset,
            ))
        return tuple(points)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        # Text that is not JSON at all is a sweep error; the sections
        # of a parsed document raise the cluster layer's error.
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SweepSpecError(
                f"sweep spec is not valid JSON: {error}"
            ) from error
        return cls.from_dict(data)


def _product(axes_points: list[tuple[AxisPoint, ...]]):
    """Cross product, last axis fastest (nested-for-loop order)."""
    return itertools.product(*axes_points)


def example_sweep_spec() -> SweepSpec:
    """A small runnable grid: offered load x policy over a two-device
    fleet — the CI smoke sweep and the ``--example-spec`` document."""
    from repro.cluster.spec import DeviceSpec, FleetSpec
    return SweepSpec(
        cluster=ClusterSpec(
            fleet=FleetSpec(devices=(DeviceSpec("qat8970"),
                                     DeviceSpec("dpzip"))),
        ),
        workload=WorkloadSpec(mode="open-loop", duration_ns=5e5,
                              offered_gbps=16.0, tenants=2),
        axes=(
            SweepAxis.over("offered_gbps", "workload.offered_gbps",
                           (8.0, 24.0)),
            SweepAxis.over("policy", "policy",
                           ("round-robin", "cost-model")),
        ),
        root_seed=29,
    )
