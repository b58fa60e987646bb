"""Tests for ``repro-lint`` and the runtime simulation sanitizer.

Each lint rule gets three kinds of coverage: fixture snippets that
must be flagged (true positives), the clean idioms the codebase
actually uses that must *not* be flagged (false-positive regressions),
and suppression-comment handling.  The sanitizer gets unit tests that
corrupt engine state and expect :class:`SanitizerError`, plus the
byte-identity guarantee: the golden spec+seed scenario run under the
sanitizer must match ``tests/golden/`` exactly — the sanitizer
observes, never perturbs.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from service_stubs import StubDevice, flat_model

from repro.analyzers import (
    RULES,
    LintConfig,
    SanitizedSimulator,
    lint_source,
    render_json,
    render_text,
    sanitize_from_env,
)
from repro.analyzers.lint import main as lint_main
from repro.cluster import Cluster, TelemetrySpec, default_cluster_spec
from repro.errors import AnalyzerError, SanitizerError, SimulationError
from repro.service import FleetDevice, OffloadRequest
from repro.sim.engine import Event, Process, Simulator
from repro.virt.qos import FairArbiter, FcfsArbiter, VfRequest

GOLDEN_DIR = Path(__file__).parent / "golden"


def _sleep(sim, delay: float) -> Event:
    """An event a process yields to wait ``delay`` ns."""
    event = Event(sim)
    sim.call_later(delay, event.succeed)
    return event


def _noop() -> None:
    """An arbiter request's ``on_done`` for tests that ignore it."""


#: A config whose scoped rules all apply to the fixture path, so one
#: helper covers every rule.
ALL_SCOPES = LintConfig(
    hot_path_modules=("fixture.py",),
    wallclock_allowlist=("allowed.py",),
    spec_modules=("fixture.py",),
    pickle_modules=("fixture.py",),
)


def codes(source: str, relpath: str = "src/repro/fixture.py",
          config: LintConfig = ALL_SCOPES) -> list[str]:
    """Active (unsuppressed) finding codes for a fixture snippet."""
    return [finding.code
            for finding in lint_source(source, relpath, config)
            if not finding.suppressed]


class TestDet001WallClock:
    def test_time_time_flagged(self):
        assert codes("import time\nt = time.time()\n") == ["DET001"]

    def test_all_wallclock_functions_flagged(self):
        source = ("import time\n"
                  "a = time.monotonic()\n"
                  "b = time.perf_counter()\n"
                  "c = time.perf_counter_ns()\n")
        assert codes(source) == ["DET001"] * 3

    def test_aliased_import_flagged(self):
        assert codes("import time as t\nx = t.time()\n") == ["DET001"]

    def test_from_import_flagged(self):
        source = "from time import perf_counter\nx = perf_counter()\n"
        assert codes(source) == ["DET001"]

    def test_datetime_now_flagged(self):
        source = ("import datetime\n"
                  "from datetime import datetime as dt\n"
                  "a = datetime.datetime.now()\n"
                  "b = dt.utcnow()\n")
        assert codes(source) == ["DET001"] * 2

    def test_allowlisted_file_clean(self):
        source = "import time\nt = time.time()\n"
        assert codes(source, relpath="src/repro/allowed.py") == []

    def test_sim_now_clean(self):
        assert codes("now = sim.now\n") == []

    def test_time_sleep_clean(self):
        # sleep() doesn't *read* the clock; it's a liveness concern,
        # not a determinism one.
        assert codes("import time\ntime.sleep(1)\n") == []


class TestDet002GlobalRandomness:
    def test_module_random_flagged(self):
        assert codes("import random\nx = random.random()\n") == ["DET002"]

    def test_from_import_flagged(self):
        source = "from random import randrange\nx = randrange(5)\n"
        assert codes(source) == ["DET002"]

    def test_numpy_global_flagged(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(source) == ["DET002"]

    def test_seeded_random_clean(self):
        source = ("import random\n"
                  "rng = random.Random(7)\n"
                  "x = rng.random()\n")
        assert codes(source) == []

    def test_from_import_random_class_clean(self):
        source = ("from random import Random\n"
                  "rng = Random(7)\nx = rng.random()\n")
        assert codes(source) == []


class TestDet003SetIteration:
    def test_for_over_set_literal_name_flagged(self):
        source = "s = {1, 2, 3}\nfor x in s:\n    print(x)\n"
        assert codes(source) == ["DET003"]

    def test_for_over_set_call_flagged(self):
        source = "for x in set(items):\n    print(x)\n"
        assert codes(source) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        source = "s = {1, 2}\nout = [x for x in s]\n"
        assert codes(source) == ["DET003"]

    def test_list_of_set_flagged(self):
        source = "s = {1, 2}\nout = list(s)\n"
        assert codes(source) == ["DET003"]

    def test_join_of_set_flagged(self):
        source = "s = {'a', 'b'}\nout = ','.join(s)\n"
        assert codes(source) == ["DET003"]

    def test_set_union_flagged(self):
        source = "a = {1}\nb = {2}\nfor x in a | b:\n    print(x)\n"
        assert codes(source) == ["DET003"]

    def test_sorted_wrap_clean(self):
        source = "s = {3, 1, 2}\nfor x in sorted(s):\n    print(x)\n"
        assert codes(source) == []

    def test_rebind_to_sorted_clean(self):
        # The trace-export idiom: build a set, then replace it with its
        # sorted form before anything iterates it.
        source = ("tracks = {e[1] for e in events}\n"
                  "tracks.add('control')\n"
                  "tracks = sorted(tracks)\n"
                  "tids = {t: i for i, t in enumerate(tracks)}\n"
                  "for t in tracks:\n    print(t)\n")
        assert codes(source) == []

    def test_iteration_before_rebind_still_flagged(self):
        source = ("s = {1, 2}\n"
                  "for x in s:\n    print(x)\n"
                  "s = sorted(s)\n")
        assert codes(source) == ["DET003"]

    def test_sibling_function_scope_isolated(self):
        # A set binding in one function must not poison a same-named
        # list in another (the analysis.py `columns` shape).
        source = ("def a(rows):\n"
                  "    columns = {k for r in rows for k in r}\n"
                  "    return len(columns)\n"
                  "def b(rows):\n"
                  "    columns = sorted({k for r in rows for k in r})\n"
                  "    for c in columns:\n"
                  "        print(c)\n")
        assert codes(source) == []

    def test_order_insensitive_reductions_clean(self):
        source = ("s = {1, 2, 3}\n"
                  "a = sum(x for x in s)\n"
                  "b = max(x * 2 for x in s)\n"
                  "c = len([x for x in s])\n"
                  "d = {x + 1 for x in s}\n")
        assert codes(source) == []

    def test_membership_test_clean(self):
        source = "s = {1, 2}\nif 3 in s:\n    print('hi')\n"
        assert codes(source) == []


class TestDet004IdentityOrdering:
    def test_sorted_key_id_flagged(self):
        assert codes("out = sorted(items, key=id)\n") == ["DET004"]

    def test_sorted_key_lambda_id_flagged(self):
        source = "out = sorted(items, key=lambda x: id(x))\n"
        assert codes(source) == ["DET004"]

    def test_heappush_id_tiebreak_flagged(self):
        source = ("from heapq import heappush\n"
                  "heappush(heap, (when, id(item), item))\n")
        assert codes(source) == ["DET004"]

    def test_min_hash_flagged(self):
        source = "winner = min(devices, key=lambda d: hash(d))\n"
        assert codes(source) == ["DET004"]

    def test_stable_sort_key_clean(self):
        source = "out = sorted(items, key=lambda x: x.seq)\n"
        assert codes(source) == []

    def test_id_outside_ordering_clean(self):
        # id() as a cache key or log token orders nothing.
        assert codes("token = id(obj)\n") == []


class TestHot001Slots:
    def test_plain_class_flagged(self):
        source = "class Hot:\n    def __init__(self):\n        self.x = 1\n"
        assert codes(source) == ["HOT001"]

    def test_plain_dataclass_flagged(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\nclass Hot:\n    x: int = 0\n")
        assert codes(source) == ["HOT001"]

    def test_slots_class_clean(self):
        source = ("class Hot:\n"
                  "    __slots__ = ('x',)\n"
                  "    def __init__(self):\n        self.x = 1\n")
        assert codes(source) == []

    def test_slots_dataclass_clean(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass(slots=True)\nclass Hot:\n    x: int = 0\n")
        assert codes(source) == []

    def test_enum_and_exception_exempt(self):
        source = ("import enum\n"
                  "class State(enum.Enum):\n    ON = 1\n"
                  "class BadThing(Exception):\n    pass\n")
        assert codes(source) == []

    def test_out_of_scope_module_clean(self):
        source = "class Cold:\n    def __init__(self):\n        self.x = 1\n"
        assert codes(source, relpath="src/repro/cold_module.py") == []


#: Fixture classes are deliberately unslotted, so the SPEC/PKL tests
#: select their rule to keep HOT001 out of the expected codes.
SPEC_ONLY = dataclasses.replace(ALL_SCOPES, select=("SPEC001",))
PKL_ONLY = dataclasses.replace(ALL_SCOPES, select=("PKL001",))


class TestSpec001FromDict:
    def test_lenient_from_dict_flagged(self):
        source = ("class Spec:\n"
                  "    @classmethod\n"
                  "    def from_dict(cls, data):\n"
                  "        return cls(**data)\n")
        assert codes(source, config=SPEC_ONLY) == ["SPEC001"]

    def test_check_keys_clean(self):
        source = ("class Spec:\n"
                  "    @classmethod\n"
                  "    def from_dict(cls, data):\n"
                  "        _check_keys(cls, data)\n"
                  "        return cls(**data)\n")
        assert codes(source, config=SPEC_ONLY) == []

    def test_delegating_from_dict_clean(self):
        source = ("class Outer:\n"
                  "    @classmethod\n"
                  "    def from_dict(cls, data):\n"
                  "        return cls(inner=Inner.from_dict(data))\n")
        assert codes(source, config=SPEC_ONLY) == []


class TestPkl001Closures:
    def test_lambda_on_self_flagged(self):
        source = ("class Carrier:\n"
                  "    def __init__(self):\n"
                  "        self.fn = lambda x: x + 1\n")
        assert codes(source, config=PKL_ONLY) == ["PKL001"]

    def test_local_function_on_self_flagged(self):
        source = ("class Carrier:\n"
                  "    def __init__(self):\n"
                  "        def helper(x):\n"
                  "            return x + 1\n"
                  "        self.fn = helper\n")
        assert codes(source, config=PKL_ONLY) == ["PKL001"]

    def test_module_level_function_clean(self):
        source = ("def helper(x):\n"
                  "    return x + 1\n"
                  "class Carrier:\n"
                  "    def __init__(self):\n"
                  "        self.fn = helper\n")
        assert codes(source, config=PKL_ONLY) == []

    def test_out_of_scope_module_clean(self):
        source = ("class Carrier:\n"
                  "    def __init__(self):\n"
                  "        self.fn = lambda x: x\n")
        assert codes(source, relpath="src/repro/cold_module.py") == []


class TestSuppressions:
    def test_reasoned_suppression_silences(self):
        source = ("import time\n"
                  "t = time.time()  # repro-lint: disable=DET001 -- "
                  "wall-clock is the measurement here\n")
        findings = lint_source(source, "src/repro/fixture.py", ALL_SCOPES)
        assert [f.code for f in findings] == ["DET001"]
        assert findings[0].suppressed
        assert "measurement" in findings[0].suppression_reason

    def test_unexplained_suppression_stays_active(self):
        source = ("import time\n"
                  "t = time.time()  # repro-lint: disable=DET001\n")
        findings = lint_source(source, "src/repro/fixture.py", ALL_SCOPES)
        assert [f.code for f in findings] == ["DET001"]
        assert not findings[0].suppressed
        assert "missing" in findings[0].message

    def test_wrong_code_does_not_silence(self):
        source = ("import time\n"
                  "t = time.time()  # repro-lint: disable=DET002 -- "
                  "not the right code\n")
        assert codes(source) == ["DET001"]

    def test_multiple_codes_one_comment(self):
        source = ("import time, random\n"
                  "t = (time.time(), random.random())"
                  "  # repro-lint: disable=DET001,DET002 -- fixture\n")
        findings = lint_source(source, "src/repro/fixture.py", ALL_SCOPES)
        assert sorted(f.code for f in findings) == ["DET001", "DET002"]
        assert all(f.suppressed for f in findings)


class TestEngineAndReporters:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "src/repro/fixture.py")
        assert [f.code for f in findings] == ["E999"]

    def test_unknown_select_code_raises(self):
        config = dataclasses.replace(ALL_SCOPES, select=("NOPE999",))
        with pytest.raises(AnalyzerError):
            lint_source("x = 1\n", "src/repro/fixture.py", config)

    def test_select_restricts_rules(self):
        config = dataclasses.replace(ALL_SCOPES, select=("DET002",))
        source = "import time\nclass Hot:\n    t = time.time()\n"
        assert codes(source, config=config) == []

    def test_render_text_summary(self):
        findings = lint_source("import time\nt = time.time()\n",
                               "src/repro/fixture.py", ALL_SCOPES)
        text = render_text(findings)
        assert "DET001" in text
        assert "1 finding(s)" in text

    def test_render_json_deterministic(self):
        findings = lint_source("import time\nt = time.time()\n",
                               "src/repro/fixture.py", ALL_SCOPES)
        document = json.loads(render_json(findings))
        assert document["summary"]["active"] == 1
        assert document["findings"][0]["code"] == "DET001"

    def test_cli_on_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target)]) == 0

    def test_cli_on_dirty_tree_exits_one(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("s = {1, 2}\nfor x in s:\n    print(x)\n")
        assert lint_main([str(target)]) == 1

    def test_cli_missing_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/a/path.py"]) == 2

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_repo_src_is_clean(self):
        # The acceptance bar: the shipped tree lints clean with zero
        # unexplained suppressions.
        repo_root = Path(__file__).parent.parent
        assert lint_main([str(repo_root / "src")]) == 0


class TestSanitizedSimulator:
    def test_normal_run_works(self):
        sim = SanitizedSimulator()
        log = []

        def worker(sim):
            yield _sleep(sim, 5)
            log.append(sim.now)

        Process(sim, worker(sim))
        sim.run()
        assert log == [5.0]
        assert sim.entries_checked > 0

    def test_results_match_plain_simulator(self):
        def run_workers(sim):
            log = []

            def worker(sim, delay):
                yield _sleep(sim, delay)
                log.append((sim.now, delay))

            for delay in (7, 3, 5, 3):
                Process(sim, worker(sim, delay))
            sim.run()
            return log

        assert run_workers(Simulator()) == run_workers(SanitizedSimulator())

    def test_malformed_entry_shape_raises(self):
        from heapq import heappush
        sim = SanitizedSimulator()
        heappush(sim._queue, (1.0, 0))  # not a triple
        with pytest.raises(SanitizerError, match="triple"):
            sim.run()

    def test_non_callable_item_raises(self):
        from heapq import heappush
        sim = SanitizedSimulator()
        heappush(sim._queue, (1.0, 0, "not an event"))
        with pytest.raises(SanitizerError, match="neither an Event"):
            sim.run()

    def test_duplicate_sequence_raises(self):
        from heapq import heappush
        sim = SanitizedSimulator()
        heappush(sim._queue, (1.0, 7, lambda: None))
        heappush(sim._queue, (2.0, 7, lambda: None))
        with pytest.raises(SanitizerError, match="popped twice"):
            sim.run()

    def test_double_fire_raises(self):
        from heapq import heappush
        sim = SanitizedSimulator()
        event = Event(sim)
        event.succeed()
        # Hand-requeue the same event, bypassing succeed()'s guard.
        heappush(sim._queue, (0.0, next(sim._sequence), event))
        with pytest.raises(SanitizerError, match="fired twice"):
            sim.run()

    def test_non_callable_lane_item_raises(self):
        sim = SanitizedSimulator()
        sim._lane.append("not an event")
        with pytest.raises(SanitizerError, match="neither an Event"):
            sim.run()

    def test_event_on_lane_twice_raises(self):
        sim = SanitizedSimulator()
        event = Event(sim)
        event.succeed()
        # Hand-append the same event to the lane, bypassing succeed().
        sim._lane.append(event)
        with pytest.raises(SanitizerError, match="fired twice"):
            sim.run()

    def test_run_until_before_clock_raises(self):
        sim = SanitizedSimulator()
        sim.call_later(10, lambda: None)
        sim.call_later(20, lambda: None)
        sim.run(until=15)
        with pytest.raises(SimulationError, match="before the clock"):
            sim.run(until=5)
        assert sim.now == 15

    def test_untriggered_event_on_queue_raises(self):
        from heapq import heappush
        sim = SanitizedSimulator()
        heappush(sim._queue, (0.0, next(sim._sequence), Event(sim)))
        with pytest.raises(SanitizerError, match="without being "
                                                 "triggered"):
            sim.run()

    def test_post_fire_callback_mutation_raises(self):
        sim = SanitizedSimulator()
        event = _sleep(sim, 1.0)
        evil = _sleep(sim, 1.0)

        def mutate():
            # Direct mutation of a fired event's callback slot — the
            # bug add_callback's late-registration path exists to
            # prevent.
            event._callbacks = lambda e: None

        sim.call_later(2.0, mutate)
        assert evil is not None
        with pytest.raises(SanitizerError, match="already-fired"):
            sim.run()
            sim.finish()

    @staticmethod
    def _doorbell_device(sim) -> FleetDevice:
        """A one-request-per-batch device whose doorbell takes 100 ns."""
        return FleetDevice(
            sim, StubDevice(),
            flat_model(engine_per_byte_ns=0.01, submit_ns=100.0),
            batch_size=1, batch_timeout_ns=None)

    def test_unrung_doorbell_batch_detected(self):
        # Three batches launch at t=0; the run is cut while the first
        # still rings, so the device holds all three.
        sim = SanitizedSimulator()
        device = self._doorbell_device(sim)
        for tenant in range(3):
            device.enqueue(OffloadRequest(tenant=tenant, nbytes=100))
        sim.run(until=50)
        with pytest.raises(SanitizerError,
                           match="FleetDevice ended the run with 3 "
                                 "launched batch"):
            sim.finish()

    def test_clean_run_finishes_quietly(self):
        # Every batch rang and served; the idle device is no leak.
        sim = SanitizedSimulator()
        device = self._doorbell_device(sim)
        done = []
        for tenant in range(3):
            device.enqueue(OffloadRequest(tenant=tenant, nbytes=100),
                           on_complete=lambda r, dev, cost:
                           done.append(r.tenant))
        sim.run()
        sim.finish()
        assert done == [0, 1, 2]

    def test_fcfs_blocked_submissions_detected(self):
        # One engine, ceiling 1: the first request is served, the second
        # moves into the hardware queue, the third is still blocked at
        # the ceiling when the run is cut short.
        sim = SanitizedSimulator()
        arbiter = FcfsArbiter(sim, engine_slots=1, queue_ceiling=1)
        for _ in range(3):
            arbiter.submit(VfRequest(vf_index=0, nbytes=1, service_ns=100,
                                     on_done=_noop))
        sim.run(until=50)
        with pytest.raises(SanitizerError, match="1 blocked request"):
            sim.finish()

    def test_fcfs_undispatched_queue_detected(self):
        sim = SanitizedSimulator()
        arbiter = FcfsArbiter(sim, engine_slots=1, queue_ceiling=8)
        for _ in range(2):
            arbiter.submit(VfRequest(vf_index=0, nbytes=1, service_ns=100,
                                     on_done=_noop))
        sim.run(until=50)
        with pytest.raises(SanitizerError,
                           match="1 undispatched request") as raised:
            sim.finish()
        assert "blocked" not in str(raised.value)

    def test_fair_per_vf_queues_detected(self):
        sim = SanitizedSimulator()
        arbiter = FairArbiter(sim, engine_slots=1, vf_count=2)
        for vf_index in (0, 1, 0):
            arbiter.submit(VfRequest(vf_index=vf_index, nbytes=1,
                                     service_ns=100, on_done=_noop))
        sim.run(until=50)
        with pytest.raises(SanitizerError, match="2 queued request"):
            sim.finish()

    def test_drained_arbiters_finish_quietly(self):
        sim = SanitizedSimulator()
        arbiters = (FcfsArbiter(sim, engine_slots=1, queue_ceiling=1),
                    FairArbiter(sim, engine_slots=1, vf_count=2))
        for arbiter in arbiters:
            for vf_index in (0, 1, 0):
                arbiter.submit(VfRequest(vf_index=vf_index, nbytes=1,
                                         service_ns=100, on_done=_noop))
        sim.run()
        sim.finish()

    def test_plain_simulator_has_no_hooks(self):
        # The production kernel must not pay for sanitization support:
        # no registration list, no finish().
        sim = Simulator()
        assert not hasattr(sim, "_register_waitable")
        assert not hasattr(sim, "finish")

    def test_sanitize_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_from_env() is False
        assert sanitize_from_env(default=True) is True
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitize_from_env() is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize_from_env() is False


class TestSanitizedGoldenRun:
    """Satellite: the sanitizer observes, never perturbs."""

    GOLDEN_STREAM = dict(offered_gbps=36.0, duration_ns=5e5, tenants=4,
                         seed=5)

    def _run(self, sanitize: bool):
        spec = dataclasses.replace(
            default_cluster_spec(),
            telemetry=TelemetrySpec(trace=True, metrics_interval_ns=1e5))
        cluster = Cluster.from_spec(spec, sanitize=sanitize)
        cluster.open_loop(**self.GOLDEN_STREAM)
        return cluster.run()

    def _document(self, result) -> dict:
        service = result.service
        return {
            "row": result.row(),
            "clients": result.clients,
            "slo_breakdown": service.slo_breakdown,
            "breakdown": service.breakdown,
            "op_breakdown": service.op_breakdown,
            "per_device": service.per_device,
            "metrics_rows": result.telemetry.metrics_rows,
        }

    def test_uses_sanitized_simulator(self):
        spec = default_cluster_spec()
        assert isinstance(Cluster.from_spec(spec, sanitize=True).sim,
                          SanitizedSimulator)
        assert type(Cluster.from_spec(spec, sanitize=False).sim) \
            is Simulator

    def test_env_var_controls_default(self, monkeypatch):
        spec = default_cluster_spec()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert isinstance(Cluster.from_spec(spec).sim,
                          SanitizedSimulator)
        monkeypatch.delenv("REPRO_SANITIZE")
        assert type(Cluster.from_spec(spec).sim) is Simulator

    def test_rows_byte_identical_under_sanitizer(self):
        result = self._run(sanitize=True)
        rows = (json.dumps(self._document(result), indent=2,
                           sort_keys=True) + "\n").encode()
        assert rows == (GOLDEN_DIR / "run_result.json").read_bytes(), (
            "sanitized golden run diverged from the golden capture: "
            "the sanitizer perturbed the simulation instead of only "
            "observing it"
        )

    def test_trace_byte_identical_under_sanitizer(self, tmp_path):
        result = self._run(sanitize=True)
        trace_path = tmp_path / "trace.json"
        result.export_trace(str(trace_path))
        assert trace_path.read_bytes() == \
            (GOLDEN_DIR / "trace.json").read_bytes()
