"""Spec codec tests: every spec class round-trips and rejects malformed
documents with its family's error, naming the dotted field path.

The property tests generate valid specs from the dataclass type hints
(plus the value sets each ``__post_init__`` enforces), then check that
``to_dict`` -> JSON -> ``from_dict`` is the identity and that a
wrong-typed value, an unknown key or a dropped required key raises
exactly the error of the section that holds it.
"""

import dataclasses
import functools
import json
import math
import typing
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import (
    CALIBRATED_OPS,
    DEVICE_KINDS,
    RECONFIG_ACTIONS,
    AdmissionSpec,
    ClusterSpec,
    DeviceSpec,
    FleetSpec,
    ReconfigEvent,
    SloShare,
    SloSpec,
    StoreSpec,
    TelemetrySpec,
    apply_override,
)
from repro.errors import (
    ClusterSpecError,
    FederationSpecError,
    ReproError,
    ServiceError,
    TelemetryError,
    WorkloadError,
)
from repro.federation.spec import (
    ROUTING_POLICIES,
    FederationMemberSpec,
    FederationSpec,
    LinkSpec,
    example_federation_spec,
)
from repro.service.policy import POLICIES
from repro.speccodec import Spec
from repro.sweep.spec import (
    WORKLOAD_MODES,
    AxisPoint,
    SweepAxis,
    SweepFilter,
    SweepSpec,
    WorkloadSpec,
)
from repro.telemetry.analysis import (
    OBJECTIVE_SCOPES,
    OBJECTIVE_SENSES,
    OBJECTIVE_SOURCES,
    SloObjective,
)
from repro.workloads.population import (
    POPULATION_DISTRIBUTIONS,
    DiurnalSpec,
    TenantPopulationSpec,
)

SPEC_CLASSES = (
    DeviceSpec, FleetSpec, AdmissionSpec, SloSpec, SloShare, StoreSpec,
    ReconfigEvent, TelemetrySpec, ClusterSpec,
    WorkloadSpec, AxisPoint, SweepAxis, SweepFilter, SweepSpec,
    LinkSpec, FederationMemberSpec, FederationSpec,
    SloObjective, TenantPopulationSpec, DiurnalSpec,
)

#: Errors a malformed document must never surface as.
FORBIDDEN = (TypeError, KeyError, AttributeError, ServiceError)

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None)


# -- valid spec generation -----------------------------------------------------

NAMES = st.sampled_from(["a", "b", "east", "x-1"])
AXIS_NAMES = st.sampled_from(["a", "b"])
LABELS = st.one_of(st.integers(0, 9), st.sampled_from(["lo", "hi"]),
                   st.floats(0.0, 1.0))
OVERRIDE_VALUES = st.one_of(st.integers(-5, 5), st.booleans(), st.none(),
                            st.sampled_from(["static", "x"]))


def _unique(cls: type, key, min_size: int = 0, max_size: int = 2):
    return st.lists(st.deferred(lambda: specs(cls)), min_size=min_size,
                    max_size=max_size, unique_by=key).map(tuple)


#: Value sets the classes' ``__post_init__`` checks enforce beyond the
#: field type; every other field is generated from its type hint.
FIELD_VALUES = {
    (DeviceSpec, "kind"): st.sampled_from(DEVICE_KINDS),
    (FleetSpec, "ops"): st.sampled_from(
        [("compress",), ("decompress",), CALIBRATED_OPS]),
    (ClusterSpec, "policy"): st.sampled_from(sorted(POLICIES)),
    (ClusterSpec, "slo_mix"): st.one_of(
        st.none(), _unique(SloShare, lambda share: share.slo.name, 1)),
    (ReconfigEvent, "action"): st.sampled_from(RECONFIG_ACTIONS),
    (SloSpec, "deadline_ns"): st.one_of(st.floats(1.0, 1e9),
                                        st.just(math.inf)),
    (TelemetrySpec, "objectives"): _unique(SloObjective, lambda o: o.name),
    (SloObjective, "sense"): st.sampled_from(OBJECTIVE_SENSES),
    (SloObjective, "scope"): st.sampled_from(OBJECTIVE_SCOPES),
    (SloObjective, "source"): st.sampled_from(OBJECTIVE_SOURCES),
    (TenantPopulationSpec, "distribution"):
        st.sampled_from(POPULATION_DISTRIBUTIONS),
    (WorkloadSpec, "mode"): st.sampled_from(WORKLOAD_MODES),
    (AxisPoint, "label"): LABELS,
    (AxisPoint, "overrides"): st.dictionaries(
        st.sampled_from(["policy", "workload.tenants"]), OVERRIDE_VALUES,
        min_size=1),
    (SweepAxis, "name"): AXIS_NAMES,
    (SweepAxis, "points"): _unique(AxisPoint, lambda p: p.label, 1),
    (SweepFilter, "when"): st.dictionaries(AXIS_NAMES, LABELS, min_size=1),
    (SweepSpec, "axes"): _unique(SweepAxis, lambda axis: axis.name),
    (SweepSpec, "filters"): _unique(SweepFilter, repr, max_size=1),
    (LinkSpec, "pcie_generation"): st.one_of(st.none(),
                                             st.sampled_from([3, 4, 5])),
    (LinkSpec, "pcie_lanes"): st.sampled_from([1, 2, 4, 8, 16]),
    (FederationMemberSpec, "cluster"): st.deferred(
        lambda: specs(ClusterSpec)).map(lambda cluster: dataclasses.replace(
            cluster, store=None, telemetry=None)),
    (FederationSpec, "routing"): st.sampled_from(ROUTING_POLICIES),
    (FederationSpec, "members"): _unique(
        FederationMemberSpec, lambda member: member.name, 2, 2),
    (FederationSpec, "workload"): st.deferred(
        lambda: specs(WorkloadSpec)).map(
            lambda workload: dataclasses.replace(workload,
                                                 mode="open-loop")),
}


def _values(hint: Any) -> st.SearchStrategy:
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if type(None) in args:
        present, = (arg for arg in args if arg is not type(None))
        return st.one_of(st.none(), _values(present))
    if origin is tuple:
        return st.lists(_values(args[0]), max_size=2).map(tuple)
    if isinstance(hint, type) and issubclass(hint, Spec):
        return st.deferred(lambda: specs(hint))
    return {
        int: st.integers(1, 64),
        float: st.one_of(st.floats(0.05, 1.0), st.just(1)),
        str: NAMES,
        bool: st.booleans(),
    }[hint]


def _build(cls: type, kwargs: dict) -> Any:
    try:
        return cls(**kwargs)
    except ReproError:
        return None  # a cross-field check rejected the draw


@functools.cache
def specs(cls: type) -> st.SearchStrategy:
    """Valid instances of one spec class."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: FIELD_VALUES[cls, f.name]
              if (cls, f.name) in FIELD_VALUES else _values(hints[f.name])
              for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries(fields).map(
        functools.partial(_build, cls)).filter(lambda spec: spec is not None)


# -- mutation sites ------------------------------------------------------------


def _unwrap(hint: Any) -> tuple[Any, bool]:
    """(the hint without ``| None``, whether ``null`` is allowed)."""
    args = typing.get_args(hint)
    if type(None) in args:
        present, = (arg for arg in args if arg is not type(None))
        return present, True
    return hint, False


def _is_spec(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Spec)


def _join(path: str, step: str | int) -> str:
    if isinstance(step, int):
        return f"{path}[{step}]"
    return f"{path}.{step}" if path else step


def _sites(cls: type, doc: dict, steps: tuple, path: str):
    """Every mutation target inside one decoded section."""
    yield ("unknown", cls, steps, path, None)
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            yield ("drop", cls, steps, path, f.name)
        hint, _ = _unwrap(hints[f.name])
        if hint is not Any:
            yield ("retype", cls, steps, path, f.name)
        value = doc[f.name]
        item = typing.get_args(hint)[0] \
            if typing.get_origin(hint) is tuple else None
        if _is_spec(hint) and isinstance(value, dict):
            yield from _sites(hint, value, steps + (f.name,),
                              _join(path, f.name))
        elif _is_spec(item) and value:
            index = len(value) - 1
            yield from _sites(item, value[index], steps + (f.name, index),
                              _join(_join(path, f.name), index))


def _wrong_values(hint: Any) -> list:
    """Values the codec must reject for a field of type ``hint``."""
    hint, nullable = _unwrap(hint)
    origin = typing.get_origin(hint)
    if origin is tuple:
        wrong = ["abc", 5, {}]
    elif origin is dict:
        wrong = [[], "x", 5]
    elif _is_spec(hint):
        wrong = [5, [], True, "nope"]
    else:
        wrong = {
            int: ["x", 1.5, True, [1]],
            float: ["x", True, [], math.nan],
            str: [1, True, [], {}],
            bool: [1, "true", 0.0],
        }[hint]
    return wrong if nullable else wrong + [None]


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda c: c.__name__)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_generated_spec_round_trips_through_json(cls, data):
    spec = data.draw(specs(cls))
    text = json.dumps(spec.to_dict())
    again = cls.from_dict(json.loads(text))
    assert again == spec
    assert json.dumps(again.to_dict()) == text


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda c: c.__name__)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_mutated_document_raises_the_family_error(cls, data):
    doc = json.loads(json.dumps(data.draw(specs(cls)).to_dict()))
    kind, owner, steps, path, name = data.draw(
        st.sampled_from(list(_sites(cls, doc, (), ""))))
    section = doc
    for step in steps:
        section = section[step]
    if kind == "unknown":
        section["bogus_key"] = 1
        expected, prefix = owner.error, path
    elif kind == "drop":
        del section[name]
        expected, prefix = owner.error, _join(path, name)
    else:
        hint = typing.get_type_hints(owner)[name]
        section[name] = data.draw(st.sampled_from(_wrong_values(hint)))
        target, _ = _unwrap(hint)
        expected = target.error if _is_spec(target) else owner.error
        prefix = _join(path, name)
    with pytest.raises(expected) as info:
        cls.from_dict(doc)
    assert not isinstance(info.value, FORBIDDEN)
    assert str(info.value).startswith(prefix)


# -- malformed documents that once raised TypeError or were accepted -----------


def _cluster_document() -> dict:
    return ClusterSpec(
        fleet=FleetSpec(devices=(DeviceSpec("cpu", threads=8),
                                 DeviceSpec("dpzip")),
                        spill=DeviceSpec("cpu", algorithm="snappy")),
        admission=AdmissionSpec(),
        slo_mix=(SloShare(SloSpec.of("interactive"), weight=1.0),),
        store=StoreSpec(),
        reconfig=(ReconfigEvent(at_ns=1e6, action="brown-out",
                                device="dpzip", speed_factor=0.5),),
        telemetry=TelemetrySpec(metrics_interval_ns=1e5, objectives=(
            SloObjective(name="shed", column="shed_rate", limit=0.0),)),
    ).to_dict()


def _sweep_document() -> dict:
    return SweepSpec(
        cluster=ClusterSpec(fleet=FleetSpec(devices=(DeviceSpec("dpzip"),))),
        workload=WorkloadSpec(population=TenantPopulationSpec(tenants=100),
                              diurnal=DiurnalSpec()),
        axes=(SweepAxis.over("policy", "policy", ("static", "cost-model")),),
        filters=(SweepFilter(when={"policy": "static"}),),
    ).to_dict()


def _federation_document() -> dict:
    return example_federation_spec().to_dict()


PROBES = [
    # Raised a bare TypeError (or ValueError, for filters[0].when).
    (ClusterSpec, "fleet.devices[0].threads", "x", ClusterSpecError),
    (ClusterSpec, "admission.ewma_alpha", "x", ClusterSpecError),
    (ClusterSpec, "admission.spill_threshold", None, ClusterSpecError),
    (ClusterSpec, "reconfig", 5, ClusterSpecError),
    (ClusterSpec, "reconfig[0].at_ns", "x", ClusterSpecError),
    (ClusterSpec, "reconfig[0].speed_factor", "x", ClusterSpecError),
    (ClusterSpec, "slo_mix[0].weight", "x", ClusterSpecError),
    (ClusterSpec, "slo_mix[0].slo.tier", "0", ClusterSpecError),
    (ClusterSpec, "telemetry.trace_capacity", "x", ClusterSpecError),
    (ClusterSpec, "telemetry.metrics_interval_ns", "x", ClusterSpecError),
    (ClusterSpec, "telemetry.objectives", 5, ClusterSpecError),
    (ClusterSpec, "telemetry.objectives[0].budget", "x", TelemetryError),
    (SweepSpec, "replicates", "2", ClusterSpecError),
    (SweepSpec, "workload.diurnal.amplitude", "x", WorkloadError),
    (SweepSpec, "filters[0].when", "x", ClusterSpecError),
    (FederationSpec, "members[0].link.latency_ns", "x",
     FederationSpecError),
    (FederationSpec, "members[0].name", 5, FederationSpecError),
    (FederationSpec, "affinity_threshold", "x", FederationSpecError),
    (FederationSpec, "workload.offered_gbps", "x", ClusterSpecError),
    (FederationSpec, "telemetry.trace_capacity", "x", ClusterSpecError),
    # Accepted silently.
    (ClusterSpec, "fleet.devices[0].algorithm", 7, ClusterSpecError),
    (ClusterSpec, "reconfig[0].drain", "no", ClusterSpecError),
    (ClusterSpec, "telemetry.trace", 1, ClusterSpecError),
    (ClusterSpec, "telemetry.objectives[0].limit", "x", TelemetryError),
    (SweepSpec, "workload.tenants", 1.5, ClusterSpecError),
    (SweepSpec, "workload.population", 5, WorkloadError),
    (SweepSpec, "workload.duration_ns", math.nan, ClusterSpecError),
    (SweepSpec, "root_seed", "x", ClusterSpecError),
    (SweepSpec, "axes[0].points[0].overrides", [["policy", "static"]],
     ClusterSpecError),
    (FederationSpec, "root_seed", 1.5, FederationSpecError),
    (FederationSpec, "workload.population.tenants", True, WorkloadError),
    # Raised a spec error whose message did not name the field.
    (SweepSpec, "axes", {}, ClusterSpecError),
    (ClusterSpec, "fleet.ops", "compress", ClusterSpecError),
    (ClusterSpec, "fleet.devices[0].kind", 5, ClusterSpecError),
    (ClusterSpec, "fleet.spill", "cpu", ClusterSpecError),
    (ClusterSpec, "policy", 5, ClusterSpecError),
    (ClusterSpec, "slo_mix", "interactive", ClusterSpecError),
    # Raised ServiceError.
    (ClusterSpec, "store.read_slo", "nope", ClusterSpecError),
]

DOCUMENTS = {ClusterSpec: _cluster_document, SweepSpec: _sweep_document,
             FederationSpec: _federation_document}


@pytest.mark.parametrize("root, path, value, error", PROBES,
                         ids=[f"{p[0].__name__}:{p[1]}={p[2]!r}"
                              for p in PROBES])
def test_probe_document_raises_family_error_naming_the_path(
        root, path, value, error):
    doc = DOCUMENTS[root]()
    apply_override(doc, path, value)
    with pytest.raises(error) as info:
        root.from_dict(doc)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path} must be")


def test_probe_base_documents_are_valid():
    for root, document in DOCUMENTS.items():
        doc = document()
        assert root.from_dict(doc).to_dict() == doc


# -- codec rules ---------------------------------------------------------------


class TestCodecRules:
    def test_nan_rejected_infinity_kept(self):
        with pytest.raises(ClusterSpecError, match="^duration_ns must be"):
            WorkloadSpec.from_dict({"duration_ns": float("nan")})
        with pytest.raises(ClusterSpecError, match="^duration_ns must be"):
            WorkloadSpec.from_json('{"duration_ns": NaN}')
        slo = SloSpec.from_json(
            '{"name": "scavenger", "tier": 3, "deadline_ns": Infinity}')
        assert math.isinf(slo.deadline_ns)

    def test_integer_in_a_float_field_stays_an_integer(self):
        text = WorkloadSpec(duration_ns=5, offered_gbps=2).to_json()
        workload = WorkloadSpec.from_json(text)
        assert type(workload.duration_ns) is int
        assert workload.to_json() == text

    def test_null_only_for_optional_fields(self):
        assert StoreSpec.from_dict({"segment_bytes": None}) == StoreSpec()
        with pytest.raises(ClusterSpecError,
                           match="^cache_blocks must be an integer"):
            StoreSpec.from_dict({"cache_blocks": None})

    def test_missing_required_key_names_the_path(self):
        with pytest.raises(ClusterSpecError,
                           match=r"^fleet\.devices\[1\]\.kind is required"):
            ClusterSpec.from_dict(
                {"fleet": {"devices": [{"kind": "cpu"}, {}]}})

    def test_unknown_key_at_the_root_and_nested(self):
        with pytest.raises(ClusterSpecError, match=r"^unknown key\(s\)"):
            DeviceSpec.from_dict({"kind": "cpu", "knd": "x"})
        with pytest.raises(ClusterSpecError,
                           match=r"^fleet\.spill: unknown key\(s\) \['knd'\]"):
            ClusterSpec.from_dict({"fleet": {"devices": [{"kind": "cpu"}],
                                             "spill": {"knd": "x"}}})

    def test_slo_shorthand_at_the_root(self):
        assert SloSpec.from_dict("throughput") == SloSpec.of("throughput")
        with pytest.raises(ClusterSpecError, match="^SloSpec must be"):
            SloSpec.from_dict("nope")

    def test_non_mapping_document(self):
        for cls in (ClusterSpec, SweepSpec, FederationSpec, SloObjective,
                    DiurnalSpec):
            with pytest.raises(cls.error,
                               match=f"^{cls.__name__} must be a mapping"):
                cls.from_dict([1, 2])
