"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.
Workloads, metric names, units and directions are documented in
``BENCHMARK.json``, which this script reads for the metric list.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` as the median
over fresh interpreters started one at a time, then timed repetitions
of the workload's fixed simulated input until ``--seconds`` have passed.
Both host times are scaled to the speed of a reference host
(``hostspeed.py``).
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics: exact work counts per op, host self time per layer
from spans around calls into each layer (``tracer.py``), the tracing
overhead and the share of run time no layer span covers.

Every repetition checks the program's outputs (``workloads.py``) and
must reproduce the first repetition's digest of the simulated rows; a
repetition that does not is a failed operation.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for one ``setup_s`` value (median).
SETUP_SAMPLES = 7
#: Repetitions an invocation runs even if ``--seconds`` is shorter.
MIN_REPS = 3
CHILD_TIMEOUT_S = 120


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(workload: str, seed: int, clock: HostClock) -> float:
    """Median launch-to-ready time of ``setup_probe.py`` interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        launched = time.time()
        try:
            child = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload,
                 str(seed)],
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"set-up of {workload} took over {CHILD_TIMEOUT_S} s")
        ready = child.stdout.split()
        if child.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
            die(f"set-up of {workload} failed (exit {child.returncode})")
        samples.append(clock.scale(float(ready[1]) - launched))
    return statistics.median(samples)


def settle() -> None:
    """Free the previous repetition's sessions before timing the next.

    Sessions hold reference cycles; left alone, the collector frees
    them at an arbitrary point inside a later timed repetition.
    """
    gc.collect()


def timed(workload):
    settle()
    start = time.perf_counter()
    outcome = workload.execute()
    return workload.rep(outcome, time.perf_counter() - start)


def repeat(step, seconds: float, minimum: int = MIN_REPS) -> None:
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        step()
        done += 1


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def count_failures(reps: list) -> int:
    """Repetitions with a failed check or a digest unlike the first's."""
    first = reps[0]
    failed = 0
    for index, rep in enumerate(reps):
        problems = list(rep.problems)
        if rep.digest != first.digest or rep.sim != first.sim:
            problems.append(f"digest {rep.digest} != first {first.digest}")
        for problem in problems:
            print(f"perfbench: repetition {index}: {problem}",
                  file=sys.stderr)
        failed += bool(problems)
    return failed


def end_to_end(workload, args) -> tuple[list, int, dict]:
    clock = HostClock()
    setup = setup_seconds(args.workload, args.seed, clock)
    workload.prepare()
    if hasattr(workload, "reference"):
        workload.reference()
    reps: list = []
    rates: list = []

    def step() -> None:
        rep = timed(workload)
        reps.append(rep)
        rates.append(rep.ops / clock.scale(rep.wall_s))

    clock.restart()
    repeat(step, args.seconds)
    host_rate = statistics.median(rep.ops / rep.wall_s for rep in reps)
    print(f"# unscaled: sim_ops_per_s={host_rate:.1f}; host speed "
          f"{statistics.median(clock.speeds):.3f} of the reference host")
    values = {
        "setup_s": setup,
        "sim_ops_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        **reps[0].sim,
    }
    return reps, count_failures(reps), values


#: Layers whose calls and self time are reported per op.
PER_OP_LAYERS = ("service.submit", "service.pump", "service.enqueue",
                 "service.predict", "service.complete", "service.dataplane",
                 "clients", "store.get", "store.put", "store.serve",
                 "federation.router.submit")


def layer_values(rep, tracer, total_ns: int,
                 root_self_ns: int) -> tuple[dict, dict]:
    """Per-layer figures of one traced repetition.

    Returns the exact counts, which do not depend on the host and must
    repeat exactly, and the host times.  Ratios are per op of ``rep``.
    """
    ops = rep.ops
    counts = rep.counts
    buckets = tracer.buckets
    events = tracer.events()

    def bucket(name: str) -> list:
        return buckets.get(name, [0, 0, 0])

    exact = {
        "sim.events_per_op": events / ops,
        "service.batches_per_op": counts["batches"] / ops,
        "telemetry.spans_per_op": counts.get("spans", 0) / ops,
        "sweep.result_kb_per_point":
            counts.get("result_bytes", 0) / 1024 / counts.get("points", 1),
    }
    times = {
        "sim.host_ns_per_event": bucket("sim")[1] / events,
        "sim.self_frac": bucket("sim")[1] / total_ns,
        "telemetry.self_frac": bucket("telemetry")[1] / total_ns,
        "report.self_frac": bucket("report")[1] / total_ns,
        "bench.unattributed_frac":
            (root_self_ns + bucket("other")[1]) / total_ns,
    }
    for layer in PER_OP_LAYERS:
        exact[f"{layer}.calls_per_op"] = bucket(layer)[0] / ops
        times[f"{layer}.self_us_per_op"] = bucket(layer)[1] / ops / 1e3
    calls, _, total = bucket("cluster.build")
    times["cluster.build_s"] = total / calls / 1e9 if calls else 0.0
    return exact, times


def per_layer(workload, args, import_s: float) -> tuple[list, int, dict]:
    # Both import the program, which main() puts on the path first.
    from repro.service.model import DeviceCostModel
    from tracer import Tracer

    setup = Tracer()
    setup.wrap(DeviceCostModel, "calibrate", "hw.calibrate")
    try:
        workload.prepare()
    finally:
        setup.uninstall()
    sweep = hasattr(workload, "reference")
    if sweep:
        workload.reference()
    plain: list = []
    inline: list = []
    point_s: list = []
    traced: list = []
    figures: list = []

    def inline_rep() -> None:
        settle()
        stamps = [time.perf_counter()]
        outcome = workload.execute_inline(
            progress=lambda *_: stamps.append(time.perf_counter()))
        inline.append(workload.rep(outcome,
                                   time.perf_counter() - stamps[0]))
        point_s.extend(b - a for a, b in zip(stamps, stamps[1:]))

    def traced_rep() -> None:
        settle()
        tracer = Tracer()
        tracer.install()
        try:
            outcome, total_ns, root_self_ns = tracer.measure(
                workload.execute_inline if sweep else workload.execute)
        finally:
            tracer.uninstall()
        rep = workload.rep(outcome, total_ns / 1e9)
        traced.append(rep)
        figures.append(layer_values(rep, tracer, total_ns, root_self_ns))

    def step() -> None:
        plain.append(timed(workload))
        if sweep:
            inline_rep()
        traced_rep()

    repeat(step, args.seconds, minimum=2)
    exact = figures[0][0]
    for rep, (counts, _) in zip(traced, figures):
        if counts != exact:
            rep.problems.append(f"exact counts {counts} != first traced "
                                f"repetition's {exact}")
    reps = plain + inline + traced
    failed = count_failures(reps)
    values = dict(exact)
    for name in figures[0][1]:
        values[name] = statistics.median(times[name] for _, times in figures)
    untraced = inline if sweep else plain
    wall = statistics.median(rep.wall_s for rep in untraced)
    first = reps[0]
    counts = first.counts
    calibrate_calls, _, calibrate_ns = setup.bucket("hw.calibrate")
    values.update({
        "bench.trace_overhead_frac":
            statistics.median(rep.wall_s for rep in traced) / wall - 1,
        "service.spill_frac": counts["spilled"] / counts["offered"],
        "service.shed_frac": counts["shed"] / counts["offered"],
        "store.hit_rate": counts.get("hit_rate", 0.0),
        "store.coalesced_frac":
            counts.get("coalesced", 0) / counts["reads"]
            if counts.get("reads") else 0.0,
        "federation.remote_frac": counts.get("remote", 0) / first.ops,
        "telemetry.dropped_frac":
            counts["dropped"] / counts["spans"] if counts.get("spans")
            else 0.0,
        "workloads.population.realize_s": getattr(workload, "realize_s",
                                                  0.0),
        "hw.calibrate_s": calibrate_ns / 1e9,
        "hw.calibrated_models": calibrate_calls,
        "import_s": import_s,
        "sweep.point_s_p50": statistics.median(point_s) if sweep else 0.0,
        "sweep.dispatch_ms_per_point":
            (statistics.median(rep.wall_s for rep in plain) - wall)
            * 1e3 / counts["points"] if sweep else 0.0,
        "sweep.requeues": sum(rep.counts.get("requeues", 0)
                              for rep in plain),
    })
    print(f"# {len(traced)} traced and {len(untraced)} untraced "
          f"repetitions of {first.ops} ops; exact counts repeat: "
          f"{all(counts == exact for counts, _ in figures)}")
    return reps, failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        die(f"no program source at {SRC}; run from a repository checkout")
    try:
        document = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        die(f"cannot read BENCHMARK.json: {error}")
    sys.path.insert(0, str(SRC))
    # Imported here, not at the top: it imports the program from SRC,
    # and the time it takes is the per-layer metric import_s.
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        reps, failed, values = per_layer(workload, args, import_s)
        wanted = document["per_layer"]
    else:
        reps, failed, values = end_to_end(workload, args)
        wanted = document["end_to_end"]
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in values]
    if missing:
        die(f"metrics not measured: {missing}")
    print(f"# {args.workload} seed={args.seed} digest={reps[0].digest} "
          f"ops_per_rep={reps[0].ops} reps={len(reps)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
