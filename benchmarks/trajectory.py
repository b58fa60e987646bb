"""Benchmark trajectory bookkeeping + regression gate for telemetry.

``BENCH_telemetry.json`` records how fast the reference telemetry
scenario runs over time — one entry per measurement, never rewritten,
so the file *is* the performance trajectory of the repo.  This module
owns that file:

* ``measure`` — run the reference scenario (the same one
  ``benchmarks/test_bench_telemetry.py`` pins: default mixed fleet,
  open-loop 36 GB/s, 1.5 ms virtual, 4 tenants, seed 5; best-of-N
  wall-clock) and print the entry JSON;
* ``append`` — measure and append the entry to the trajectory file;
* ``check`` — validate the recorded trajectory: the latest entry's
  disabled-telemetry requests/sec must not fall below ``threshold``
  times the best previously recorded entry, and disabled must remain
  the fastest variant;
* ``gate`` — measure fresh (nothing written) and run the same check
  against the recorded history; exits 1 with a loud message on
  regression.  This is what CI runs.

The threshold is deliberately loose (default 0.6): CI machines vary
widely, and the gate exists to catch "telemetry guards became 2x
slower", not 5% noise.

Each entry also carries a ``dispatch`` section: the reference sweep
grid run inline and over two local socket workers
(``benchmarks/test_bench_federation.py`` pins the same comparison).
The wall-clock numbers are informational — socket overhead is pure CI
noise — but ``rows_identical`` is gated: distributed dispatch may only
ever buy wall-clock, never change results.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"

#: The reference scenario, kept in lockstep with
#: ``benchmarks/test_bench_telemetry.py``.
LOAD_GBPS = 36.0
DURATION_NS = 1.5e6
TENANTS = 4
SEED = 5

DEFAULT_THRESHOLD = 0.6
DEFAULT_REPEATS = 5

VARIANTS = ("disabled", "trace", "trace_and_metrics")

#: Grid size for the dispatch-overhead section, kept in lockstep with
#: ``benchmarks/test_bench_federation.py``.
DISPATCH_POINTS = 6


def load(path: Path = DEFAULT_PATH) -> dict:
    """The trajectory document (raises on a missing/garbled file)."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "trajectory" not in document or not isinstance(
            document["trajectory"], list):
        raise ValueError(f"{path} has no 'trajectory' array")
    return document


def save(document: dict, path: Path = DEFAULT_PATH) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _build_specs() -> dict:
    import dataclasses

    from repro.cluster import Cluster, TelemetrySpec, default_cluster_spec

    base = default_cluster_spec()
    Cluster.from_spec(base)  # calibrate cost models before timing
    return {
        "disabled": base,
        "trace": dataclasses.replace(
            base, telemetry=TelemetrySpec(trace=True)),
        "trace_and_metrics": dataclasses.replace(
            base, telemetry=TelemetrySpec(trace=True,
                                          metrics_interval_ns=1e5)),
    }


def _timed_run(spec) -> tuple[float, int]:
    from repro.cluster import Cluster

    cluster = Cluster.from_spec(spec)
    cluster.open_loop(offered_gbps=LOAD_GBPS, duration_ns=DURATION_NS,
                      tenants=TENANTS, seed=SEED)
    start = time.perf_counter()
    result = cluster.run()
    return time.perf_counter() - start, result.service.offered


def measure_dispatch() -> dict:
    """The socket-dispatch overhead section of a trajectory entry.

    Runs the reference sweep grid once inline and once over two local
    socket workers.  Wall-clock fields are informational;
    ``rows_identical`` is the part :func:`check` gates on.
    """
    from repro.cluster import ClusterSpec, DeviceSpec, FleetSpec
    from repro.sweep import SweepAxis, SweepRunner, SweepSpec, WorkloadSpec

    spec = SweepSpec(
        cluster=ClusterSpec(fleet=FleetSpec(devices=(
            DeviceSpec("cpu", algorithm="snappy", threads=4),))),
        workload=WorkloadSpec(mode="open-loop", duration_ns=1e5,
                              offered_gbps=2.0, tenants=2),
        axes=(SweepAxis.over(
            "offered_gbps", "workload.offered_gbps",
            tuple(float(n + 1) for n in range(DISPATCH_POINTS))),),
        root_seed=13,
    )
    SweepRunner(spec).warm_calibration(spec.expand())
    start = time.perf_counter()
    inline = SweepRunner(spec).run()
    inline_wall = time.perf_counter() - start
    start = time.perf_counter()
    sockets = SweepRunner(spec, workers=2).run()
    sockets_wall = time.perf_counter() - start
    return {
        "points": DISPATCH_POINTS,
        "inline_wall_s": round(inline_wall, 4),
        "sockets_wall_s": round(sockets_wall, 4),
        "overhead_ms_per_point": round(
            (sockets_wall - inline_wall) * 1e3 / DISPATCH_POINTS, 3),
        "rows_identical": (json.dumps(inline.rows())
                           == json.dumps(sockets.rows())),
    }


def measure_entry(repeats: int = DEFAULT_REPEATS,
                  date: str | None = None) -> dict:
    """One trajectory entry for today's tree (best-of-``repeats``).

    Repeats are interleaved across the variants (and preceded by one
    untimed warm-up run each) so allocator/cache warm-up and CI noise
    hit every variant equally instead of penalising whichever ran
    first.
    """
    specs = _build_specs()
    best = {variant: float("inf") for variant in VARIANTS}
    offered = {variant: 0 for variant in VARIANTS}
    for variant in VARIANTS:
        _timed_run(specs[variant])  # warm-up, untimed
    for _ in range(repeats):
        for variant in VARIANTS:
            wall, requests = _timed_run(specs[variant])
            best[variant] = min(best[variant], wall)
            offered[variant] = requests
    entry: dict = {
        "date": date or datetime.date.today().isoformat(),
    }
    for variant in VARIANTS:
        entry[variant] = {
            "simulated_requests": offered[variant],
            "best_wall_s": round(best[variant], 4),
            "requests_per_sec": round(offered[variant] / best[variant], 1),
        }
    disabled = entry["disabled"]["requests_per_sec"]
    enabled = entry["trace_and_metrics"]["requests_per_sec"]
    entry["disabled_over_enabled_ratio"] = round(
        enabled / disabled, 3) if disabled else 0.0
    entry["dispatch"] = measure_dispatch()
    entry["note"] = "measured by benchmarks/trajectory.py"
    return entry


def check(document: dict, entry: dict | None = None,
          threshold: float = DEFAULT_THRESHOLD) -> list[str]:
    """Regression findings for ``entry`` against recorded history.

    ``entry`` defaults to the trajectory's latest recorded entry (the
    ``check`` subcommand); ``gate`` passes a freshly measured one.
    Returns human-readable failure strings — empty means healthy.
    """
    trajectory = document["trajectory"]
    if entry is None:
        if not trajectory:
            return ["trajectory is empty; nothing to check"]
        entry = trajectory[-1]
        history = trajectory[:-1]
    else:
        history = trajectory
    failures = []
    rates = {variant: entry.get(variant, {}).get("requests_per_sec", 0.0)
             for variant in VARIANTS}
    for variant in VARIANTS:
        if not rates[variant] > 0:
            failures.append(f"entry has no {variant} requests_per_sec")
    if failures:
        return failures
    # Disabled telemetry must stay (close to) the fastest variant; a
    # 0.85 tolerance absorbs scheduler jitter on shared CI runners
    # while still catching a real guard regression (full tracing
    # legitimately costs ~20%).
    fastest = max(rates, key=rates.get)
    if rates["disabled"] < 0.85 * rates[fastest]:
        failures.append(
            f"disabled telemetry ({rates['disabled']:.1f} req/s) is no "
            f"longer the fastest variant ({fastest} runs at "
            f"{rates[fastest]:.1f}); the zero-cost-when-off guards "
            f"regressed"
        )
    best_prior = max((prior["disabled"]["requests_per_sec"]
                      for prior in history if "disabled" in prior),
                     default=None)
    if best_prior is not None and rates["disabled"] < threshold * best_prior:
        failures.append(
            f"disabled-telemetry throughput regressed: "
            f"{rates['disabled']:.1f} req/s is below {threshold:.0%} of "
            f"the best recorded {best_prior:.1f} req/s "
            f"(entry {entry.get('date', '?')})"
        )
    # Pre-dispatch entries lack the section; absence is not a failure.
    dispatch = entry.get("dispatch")
    if dispatch is not None and not dispatch.get("rows_identical", False):
        failures.append(
            "distributed dispatch produced different sweep rows than "
            "the inline runner; dispatch must never change results"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure, record and gate the telemetry benchmark "
                    "trajectory (BENCH_telemetry.json).",
        epilog="Correctness tooling: 'repro-lint src/' (python -m "
               "repro.analyzers) statically checks determinism and "
               "hot-path contracts; REPRO_SANITIZE=1 (or "
               "Cluster.from_spec(..., sanitize=True)) reruns any "
               "simulation under the runtime sanitizer with identical "
               "results.")
    parser.add_argument("command", choices=("measure", "append", "check",
                                            "gate"))
    parser.add_argument("--path", type=Path, default=DEFAULT_PATH,
                        help="trajectory file (default: repo root "
                             "BENCH_telemetry.json)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="wall-clock repetitions per variant "
                             "(best is kept)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="minimum fraction of the best recorded "
                             "disabled req/s the candidate must reach")
    parser.add_argument("--date", help="entry date override "
                                       "(default: today)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    if args.command == "check":
        failures = check(load(args.path), threshold=args.threshold)
    else:
        entry = measure_entry(repeats=args.repeats, date=args.date)
        if args.command == "measure":
            print(json.dumps(entry, indent=2))
            return 0
        if args.command == "append":
            document = load(args.path)
            document["trajectory"].append(entry)
            save(document, args.path)
            print(f"appended {entry['date']} entry to {args.path} "
                  f"({len(document['trajectory'])} entries)")
            return 0
        failures = check(load(args.path), entry=entry,
                         threshold=args.threshold)
        print(f"gate: measured disabled "
              f"{entry['disabled']['requests_per_sec']:.1f} req/s "
              f"(trace {entry['trace']['requests_per_sec']:.1f}, "
              f"trace+metrics "
              f"{entry['trace_and_metrics']['requests_per_sec']:.1f})")
        dispatch = entry["dispatch"]
        print(f"gate: socket dispatch adds "
              f"{dispatch['overhead_ms_per_point']:.3f} ms/point over "
              f"inline ({dispatch['points']} points, rows identical: "
              f"{dispatch['rows_identical']})")
    if failures:
        for failure in failures:
            print(f"BENCHMARK REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark trajectory healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
