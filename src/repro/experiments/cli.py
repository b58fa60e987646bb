"""Command-line entry point: ``repro-experiment [names...]``.

Runs the requested experiments (default: all) and prints their tables.
``--full`` switches off quick mode for paper-scale workloads.

Six dedicated subcommands expose the serving layer with tunable
parameters (the sweeps' registered ids run the same sweeps at
defaults):

* ``repro-experiment cluster --spec cluster.json`` — one serving run
  over a declarative :class:`~repro.cluster.ClusterSpec` document
  (``--example-spec`` prints a starting point); open-loop,
  closed-loop (``--closed-loop``) or store traffic depending on the
  spec and flags;
* ``repro-experiment report --spec cluster.json`` — one run with
  telemetry forced on, analyzed into a pass/warn/fail
  :class:`~repro.telemetry.HealthReport` (SLO burn-rate alerts,
  scanner findings); ``--profile`` adds the host wall-clock
  attribution, ``--trace`` exports the annotated trace;
* ``repro-experiment sweep --spec sweep.json --workers N`` — a whole
  experiment grid from one declarative
  :class:`~repro.sweep.SweepSpec` document, executed inline or — with
  ``--workers N`` / ``--hosts`` — over authenticated socket workers
  with byte-identical rows
  (``--example-spec`` runs the built-in smoke grid,
  ``--print-example-spec`` dumps its JSON);
* ``repro-experiment federation --spec federation.json`` — one
  federated serving run over a declarative
  :class:`~repro.federation.FederationSpec` document: N member
  clusters on one shared simulator behind a global router
  (``--example-spec`` prints a 3-cluster, 100k-tenant starting point);
* ``repro-experiment worker --listen HOST:PORT`` — a sweep worker
  process that serves grid points to distributed drivers
  (``repro-experiment sweep --hosts ...``) holding the same
  ``REPRO_WORKER_KEY``;
* ``repro-experiment service [options]`` — the compress-offload
  scaling sweep (offered load x fleet mix x dispatch policy);
* ``repro-experiment store [options]`` — the compressed block-store
  sweep (read fraction x cache size x dispatch policy);
* ``repro-experiment slo [options]`` — the SLO-degradation sweep
  (brown-out timing x SLO mix x policy).

The sweep subcommands share one option block (``--duration-ms``,
``--tenants``, ``--seed``, ``--workers``, ``--csv``, ``--json``)
declared once as argparse parent parsers instead of being repeated per
subcommand; ``--csv``/``--json`` export the printed rows through the
unified flat-row formats of :mod:`repro.sweep.result`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.errors import ReproError
from repro.experiments import REGISTRY, run_experiment

SUBCOMMANDS = ("cluster", "report", "sweep", "federation", "worker",
               "service", "store", "slo")

#: Shared ``--help`` epilog: where the correctness tooling lives.
CORRECTNESS_EPILOG = (
    "Correctness tooling: 'repro-lint src/' (or 'python -m "
    "repro.analyzers src/') runs the determinism & hot-path static "
    "analysis; --sanitize (on cluster/report) or REPRO_SANITIZE=1 (any "
    "subcommand) reruns the simulation under the runtime sanitizer, "
    "which validates engine invariants without changing results."
)


def _run_options(duration_ms: float, seed: int,
                 tenants: int = 4) -> argparse.ArgumentParser:
    """Shared per-run flags (defaults vary by subcommand)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shared run options")
    group.add_argument("--duration-ms", type=float, default=duration_ms,
                       help="virtual stream duration per run")
    group.add_argument("--tenants", type=int, default=tenants,
                       help="number of tenants in the request stream")
    group.add_argument("--seed", type=int, default=seed,
                       help="root seed; one number reproduces the "
                            "whole run or sweep")
    return parent


def _sweep_options() -> argparse.ArgumentParser:
    """Shared sweep execution/output flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shared sweep options")
    group.add_argument("--workers", type=int, default=0,
                       help="worker processes for the grid "
                            "(0 = run every point inline)")
    group.add_argument("--csv", metavar="PATH",
                       help="also write the result rows as CSV")
    group.add_argument("--json", metavar="PATH",
                       help="also write the result rows as JSON")
    return parent


def _write_outputs(result, args) -> None:
    """Honor the shared --csv/--json export flags."""
    if getattr(args, "csv", None):
        result.to_csv(args.csv)
    if getattr(args, "json", None):
        result.to_json(args.json)


def _positive_ms(text: str) -> float:
    """argparse type: a strictly positive millisecond count."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") \
            from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"interval must be > 0 ms, got {value:g}"
        )
    return value


def _telemetry_options() -> argparse.ArgumentParser:
    """Shared telemetry flags for the cluster/sweep subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry options")
    group.add_argument("--trace", metavar="trace.json",
                       help="record per-request spans and export them "
                            "as Chrome trace-event JSON (open the file "
                            "in ui.perfetto.dev)")
    group.add_argument("--metrics-interval-ms", type=_positive_ms,
                       metavar="MS",
                       help="sample queue depth, utilization, miss and "
                            "admission rates every MS of simulated time")
    return parent


def _warn_dropped(report, prog: str) -> None:
    """Loud stderr warning when the trace ring buffer overflowed."""
    if report is not None and report.dropped > 0:
        print(f"repro-experiment {prog}: warning: trace ring buffer "
              f"overflowed — dropped {report.dropped} of "
              f"{report.recorded} recorded events (oldest first); "
              f"raise TelemetrySpec.trace_capacity to keep them",
              file=sys.stderr)


def _telemetry_override(spec, trace: bool, interval_ms: float | None):
    """A ClusterSpec copy with the CLI telemetry flags merged in."""
    if not trace and interval_ms is None:
        return spec
    from repro.cluster import TelemetrySpec

    base = spec.telemetry if spec.telemetry is not None \
        else TelemetrySpec()
    return dataclasses.replace(spec, telemetry=dataclasses.replace(
        base,
        trace=base.trace or bool(trace),
        metrics_interval_ns=(interval_ms * 1e6 if interval_ms is not None
                             else base.metrics_interval_ns),
    ))


def _traffic_options() -> argparse.ArgumentParser:
    """Shared client-traffic flags for the cluster/report subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("traffic options")
    group.add_argument("--load-gbps", type=float, default=36.0,
                       help="open-loop/store offered load in GB/s")
    group.add_argument("--closed-loop", action="store_true",
                       help="drive closed-loop windowed clients instead "
                            "of an open-loop stream")
    group.add_argument("--clients", type=int, default=4,
                       help="number of closed-loop clients")
    group.add_argument("--window", type=int, default=8,
                       help="per-client in-flight window")
    group.add_argument("--think-us", type=float, default=5.0,
                       help="per-client think time between requests")
    group.add_argument("--read-fraction", type=float, default=0.8,
                       help="store traffic read mix")
    return parent


def _attach_clients(cluster, spec, args, duration_ns: float) -> None:
    """Attach the traffic the shared flags describe to ``cluster``."""
    if spec.store is not None:
        cluster.store_client(offered_gbps=args.load_gbps,
                             duration_ns=duration_ns,
                             read_fraction=args.read_fraction,
                             tenants=args.tenants, seed=args.seed)
    elif args.closed_loop:
        for index in range(args.clients):
            cluster.closed_loop(window=args.window,
                                duration_ns=duration_ns,
                                think_ns=args.think_us * 1000.0,
                                tenant=index, seed=args.seed + index,
                                name=f"client{index}")
    else:
        cluster.open_loop(offered_gbps=args.load_gbps,
                          duration_ns=duration_ns,
                          tenants=args.tenants, seed=args.seed)


def _point_trace_path(base: str, index: int) -> str:
    """Per-point trace file name under a sweep's --trace base path."""
    stem, dot, ext = base.rpartition(".")
    if dot and ext.lower() == "json":
        return f"{stem}-point{index}.json"
    return f"{base}-point{index}.json"


def cluster_main(argv: list[str]) -> int:
    """The ``cluster`` subcommand: one run over a ClusterSpec JSON."""
    from repro.cluster import Cluster, ClusterSpec, default_cluster_spec
    from repro.profiling import format_table

    parser = argparse.ArgumentParser(
        prog="repro-experiment cluster",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options(duration_ms=2.0, seed=1234),
                 _traffic_options(), _telemetry_options()],
        description="Serve one run over a declarative cluster spec: "
                    "open-loop by default, closed-loop windowed clients "
                    "with --closed-loop, mixed GET/PUT store traffic "
                    "when the spec has a store section.",
    )
    parser.add_argument("--spec", metavar="cluster.json",
                        help="path to a ClusterSpec JSON document")
    parser.add_argument("--example-spec", action="store_true",
                        help="print a sample spec JSON and exit")
    parser.add_argument("--with-store", action="store_true",
                        help="include a block-store section in the "
                             "--example-spec output")
    parser.add_argument("--profile", action="store_true",
                        help="attribute host wall-clock to subsystems "
                             "and print the profile after the run")
    parser.add_argument("--sanitize", action="store_true",
                        help="run on the sanitized simulator (engine "
                             "invariant checks; results are identical)")
    args = parser.parse_args(argv)
    if args.example_spec:
        print(default_cluster_spec(store=args.with_store).to_json())
        return 0
    if not args.spec:
        print("repro-experiment cluster: error: --spec cluster.json is "
              "required (or --example-spec for a starting point)",
              file=sys.stderr)
        return 2
    duration_ns = args.duration_ms * 1e6
    try:
        with open(args.spec, encoding="utf-8") as handle:
            spec = ClusterSpec.from_json(handle.read())
        spec = _telemetry_override(spec, bool(args.trace),
                                   args.metrics_interval_ms)
        cluster = Cluster.from_spec(
            spec, sanitize=True if args.sanitize else None)
        if args.profile:
            cluster.enable_profiling()
        _attach_clients(cluster, spec, args, duration_ns)
        result = cluster.run()
    except (OSError, ReproError) as error:
        print(f"repro-experiment cluster: error: {error}", file=sys.stderr)
        return 2
    print(f"== cluster: policy={result.policy} "
          f"duration={result.duration_ns / 1e6:g} ms ==")
    print(format_table([result.row()], floatfmt=".2f"))
    print("\nPer-client view:\n")
    print(format_table(result.clients, floatfmt=".2f"))
    if result.slo_breakdown:
        print("\nPer-SLO-class view:\n")
        print(format_table(result.slo_breakdown, floatfmt=".3f"))
    metrics_rows = result.metrics_rows()
    if metrics_rows:
        shown = metrics_rows[:10]
        print(f"\nMetrics time series ({len(shown)} of "
              f"{len(metrics_rows)} samples):\n")
        print(format_table(shown, floatfmt=".3f", intfmt=","))
    if args.profile:
        print()
        print(result.wall_profile.to_text())
    if args.trace:
        report = result.telemetry
        result.export_trace(args.trace)
        print(f"\nwrote {args.trace}: {len(report.events)} trace events "
              f"({report.dropped} dropped) — open in ui.perfetto.dev")
    _warn_dropped(result.telemetry, "cluster")
    return 0


def report_main(argv: list[str]) -> int:
    """The ``report`` subcommand: one run, analyzed into a health
    verdict.

    Forces telemetry on (spans + metrics sampling at
    ``--metrics-interval-ms``, default 1/50th of the run duration),
    runs the spec once, and prints the
    :class:`~repro.telemetry.HealthReport`: SLO burn-rate alerts,
    scanner findings, the per-objective pass/fail roll-up.  Exit code
    1 when the verdict is ``fail``, so the command doubles as a CI
    gate.
    """
    from repro.cluster import Cluster, ClusterSpec

    parser = argparse.ArgumentParser(
        prog="repro-experiment report",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options(duration_ms=2.0, seed=1234),
                 _traffic_options()],
        description="Run one cluster spec with telemetry forced on and "
                    "print its run-health verdict: SLO burn-rate "
                    "alerts, scanner findings (saturation plateaus, "
                    "shed bursts, cache collapse, span gaps) and the "
                    "per-objective roll-up. Exits 1 on a fail verdict.",
    )
    parser.add_argument("--spec", metavar="cluster.json",
                        help="path to a ClusterSpec JSON document")
    parser.add_argument("--metrics-interval-ms", type=_positive_ms,
                        metavar="MS",
                        help="sampling period in simulated ms "
                             "(default: duration / 50)")
    parser.add_argument("--markdown", action="store_true",
                        help="render the health report as markdown")
    parser.add_argument("--profile", action="store_true",
                        help="also attribute host wall-clock to "
                             "subsystems and print the profile")
    parser.add_argument("--trace", metavar="trace.json",
                        help="also export the trace (request spans, "
                             "metric counters, alert instants and — "
                             "with --profile — the host-time track)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run on the sanitized simulator (engine "
                             "invariant checks; results are identical)")
    args = parser.parse_args(argv)
    if not args.spec:
        print("repro-experiment report: error: --spec cluster.json is "
              "required ('repro-experiment cluster --example-spec' "
              "prints a starting point)", file=sys.stderr)
        return 2
    duration_ns = args.duration_ms * 1e6
    interval_ms = args.metrics_interval_ms \
        if args.metrics_interval_ms is not None else args.duration_ms / 50.0
    try:
        with open(args.spec, encoding="utf-8") as handle:
            spec = ClusterSpec.from_json(handle.read())
        spec = _telemetry_override(spec, True, interval_ms)
        cluster = Cluster.from_spec(
            spec, sanitize=True if args.sanitize else None)
        if args.profile:
            cluster.enable_profiling()
        _attach_clients(cluster, spec, args, duration_ns)
        result = cluster.run()
        health = result.health()
    except (OSError, ReproError) as error:
        print(f"repro-experiment report: error: {error}", file=sys.stderr)
        return 2
    print(health.to_markdown() if args.markdown else health.to_text())
    if args.profile:
        print()
        print(result.wall_profile.to_text())
    if args.trace:
        result.export_trace(args.trace)
        print(f"\nwrote {args.trace}: {len(result.telemetry.events)} "
              f"trace events, {len(health.alerts)} alert instant(s) — "
              f"open in ui.perfetto.dev")
    _warn_dropped(result.telemetry, "report")
    return 1 if health.verdict == "fail" else 0


def sweep_main(argv: list[str]) -> int:
    """The ``sweep`` subcommand: a whole grid from one SweepSpec JSON."""
    from repro.profiling import format_table
    from repro.sweep import SweepRunner, SweepSpec, example_sweep_spec

    parser = argparse.ArgumentParser(
        prog="repro-experiment sweep",
        epilog=CORRECTNESS_EPILOG,
        parents=[_sweep_options(), _telemetry_options()],
        description="Expand a declarative SweepSpec document into its "
                    "grid of cluster specs and run every point — "
                    "inline, or fanned out over --workers local or "
                    "--hosts remote workers with identical results.",
    )
    parser.add_argument("--spec", metavar="sweep.json",
                        help="path to a SweepSpec JSON document")
    parser.add_argument("--example-spec", action="store_true",
                        help="run the built-in example grid (load x "
                             "policy over a two-device fleet)")
    parser.add_argument("--print-example-spec", action="store_true",
                        help="print the built-in example SweepSpec "
                             "JSON and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's root_seed")
    parser.add_argument("--continue-on-error", action="store_true",
                        help="record failing points and keep sweeping "
                             "instead of failing fast")
    parser.add_argument("--hosts", nargs="+", metavar="HOST:PORT",
                        help="pre-started 'repro-experiment worker' "
                             "addresses; the driver and the workers "
                             "share the REPRO_WORKER_KEY secret")
    parser.add_argument("--heartbeat-timeout-s", type=float, default=10.0,
                        help="seconds of worker silence before the "
                             "driver declares it dead and requeues "
                             "its point")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    args = parser.parse_args(argv)
    if args.print_example_spec:
        print(example_sweep_spec().to_json())
        return 0
    if bool(args.spec) == args.example_spec:
        print("repro-experiment sweep: error: pass exactly one of "
              "--spec sweep.json or --example-spec "
              "(--print-example-spec dumps the example document)",
              file=sys.stderr)
        return 2

    def progress(done: int, total: int, point) -> None:
        if not args.quiet:
            print(f"[{done}/{total}] {point.describe()}",
                  file=sys.stderr)

    try:
        if args.spec:
            with open(args.spec, encoding="utf-8") as handle:
                spec = SweepSpec.from_json(handle.read())
        else:
            spec = example_sweep_spec()
        if args.seed is not None:
            spec = dataclasses.replace(spec, root_seed=args.seed)
        spec = dataclasses.replace(spec, cluster=_telemetry_override(
            spec.cluster, bool(args.trace), args.metrics_interval_ms))
        runner = SweepRunner(
            spec, workers=args.workers,
            on_error="continue" if args.continue_on_error else "raise",
            progress=progress,
            hosts=args.hosts,
            heartbeat_timeout_s=args.heartbeat_timeout_s)
        result = runner.run()
    except (OSError, ReproError) as error:
        print(f"repro-experiment sweep: error: {error}", file=sys.stderr)
        return 2
    backend = ("inline" if args.workers == 0 and args.hosts is None
               else "workers")
    print(f"== sweep: {len(result.points)} points "
          f"(grid {spec.grid_size()}), root seed {spec.root_seed}, "
          f"workers {args.workers}, backend {backend} ==")
    if runner.dispatch_dead_workers:
        print(f"repro-experiment sweep: warning: "
              f"{len(runner.dispatch_dead_workers)} worker(s) died "
              f"({', '.join(runner.dispatch_dead_workers)}); "
              f"{runner.dispatch_requeues} point(s) requeued",
              file=sys.stderr)
    print(result.table())
    _write_outputs(result, args)
    if args.trace:
        written = [run.export_trace(_point_trace_path(args.trace,
                                                      point.index))
                   for point, run in result]
        print(f"wrote {len(written)} per-point trace files "
              f"({_point_trace_path(args.trace, 0)} ...)")
    for point, run in result:
        if run.telemetry is not None and run.telemetry.dropped > 0:
            _warn_dropped(run.telemetry, f"sweep point {point.index}")
    if result.failures:
        print(f"\n{len(result.failures)} point(s) failed:",
              file=sys.stderr)
        print(format_table([failure.row()
                            for failure in result.failures]),
              file=sys.stderr)
        return 1
    return 0


def federation_main(argv: list[str]) -> int:
    """The ``federation`` subcommand: one multi-cluster serving run."""
    from repro.federation import Federation, example_federation_spec
    from repro.profiling import format_table

    parser = argparse.ArgumentParser(
        prog="repro-experiment federation",
        epilog=CORRECTNESS_EPILOG,
        description="Serve one federated run over a declarative "
                    "FederationSpec document: every member cluster on "
                    "one shared simulator behind a global router "
                    "(static-pinning / least-loaded / "
                    "locality-affinity), heavy-tailed tenant "
                    "population and diurnal load included, with "
                    "per-cluster and cross-cluster breakdowns.",
    )
    parser.add_argument("--spec", metavar="federation.json",
                        help="path to a FederationSpec JSON document")
    parser.add_argument("--example-spec", action="store_true",
                        help="print a sample 3-cluster, 100k-tenant "
                             "spec JSON and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's root_seed")
    parser.add_argument("--trace", metavar="trace.json",
                        help="export the multi-track trace (one "
                             "'<member>/...' track group per cluster "
                             "plus the router's hop spans) as Chrome "
                             "trace-event JSON")
    parser.add_argument("--sanitize", action="store_true",
                        help="run on the sanitized simulator (engine "
                             "invariant checks; results are identical)")
    args = parser.parse_args(argv)
    if args.example_spec:
        print(example_federation_spec().to_json())
        return 0
    if not args.spec:
        print("repro-experiment federation: error: --spec "
              "federation.json is required (or --example-spec for a "
              "starting point)", file=sys.stderr)
        return 2
    try:
        from repro.federation import FederationSpec

        with open(args.spec, encoding="utf-8") as handle:
            spec = FederationSpec.from_json(handle.read())
        if args.seed is not None:
            spec = dataclasses.replace(spec, root_seed=args.seed)
        federation = Federation.from_spec(
            spec, sanitize=True if args.sanitize else None)
        result = federation.run()
    except (OSError, ReproError) as error:
        print(f"repro-experiment federation: error: {error}",
              file=sys.stderr)
        return 2
    run = result.run
    print(f"== federation: {len(spec.members)} clusters "
          f"({', '.join(spec.member_names())}), routing={spec.routing}, "
          f"duration={run.duration_ns / 1e6:g} ms ==")
    print(format_table([result.row()], floatfmt=".2f"))
    print("\nPer-cluster view:\n")
    print(format_table(result.member_rows(), floatfmt=".2f"))
    print("\nCross-cluster routing:\n")
    print(format_table(result.router_rows(), floatfmt=".3f"))
    if run.slo_breakdown:
        print("\nPer-SLO-class view (worst member's percentiles):\n")
        print(format_table(run.slo_breakdown, floatfmt=".3f"))
    if args.trace:
        report = run.telemetry
        if report is None:
            print("repro-experiment federation: warning: --trace "
                  "ignored — the spec has no telemetry section",
                  file=sys.stderr)
        else:
            run.export_trace(args.trace)
            print(f"\nwrote {args.trace}: {len(report.events)} trace "
                  f"events ({report.dropped} dropped) — open in "
                  f"ui.perfetto.dev")
    _warn_dropped(run.telemetry, "federation")
    return 0


def worker_main(argv: list[str]) -> int:
    """The ``worker`` subcommand: serve sweep points to remote drivers."""
    from repro.federation.dispatch import serve_worker, worker_key

    parser = argparse.ArgumentParser(
        prog="repro-experiment worker",
        epilog=CORRECTNESS_EPILOG,
        description="Run a sweep worker: listens for a distributed "
                    "driver ('repro-experiment sweep --hosts ...'), "
                    "executes the grid points it sends, and streams "
                    "results (and heartbeats) back. One driver at a "
                    "time; runs until interrupted unless "
                    "--max-sessions caps it. Only drivers holding the "
                    "REPRO_WORKER_KEY secret set here get past the "
                    "handshake; the worker refuses to start without it.",
    )
    parser.add_argument("--listen", metavar="HOST:PORT",
                        default="127.0.0.1:0",
                        help="address to bind (default 127.0.0.1:0 = "
                             "any free port, printed on startup)")
    parser.add_argument("--heartbeat-interval-s", type=float, default=1.0,
                        help="seconds between liveness heartbeats to "
                             "the connected driver")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="exit after serving this many driver "
                             "sessions (default: run forever)")
    args = parser.parse_args(argv)
    try:
        authkey = worker_key()
    except ReproError as error:
        print(f"repro-experiment worker: error: {error}", file=sys.stderr)
        return 2
    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text:
        print(f"repro-experiment worker: error: --listen must be "
              f"HOST:PORT, got {args.listen!r}", file=sys.stderr)
        return 2
    try:
        port = int(port_text)
    except ValueError:
        print(f"repro-experiment worker: error: port must be an "
              f"integer, got {port_text!r}", file=sys.stderr)
        return 2

    def announce(bound_port: int) -> None:
        print(f"repro-experiment worker: listening on "
              f"{host}:{bound_port}", flush=True)

    try:
        serve_worker(host, port, authkey=authkey,
                     max_sessions=args.max_sessions,
                     heartbeat_interval_s=args.heartbeat_interval_s,
                     ready=announce)
    except KeyboardInterrupt:
        return 0
    except (OSError, ReproError) as error:
        print(f"repro-experiment worker: error: {error}", file=sys.stderr)
        return 2
    return 0


def service_main(argv: list[str]) -> int:
    """The ``service`` subcommand: parameterized service-scaling sweep."""
    from repro.experiments.service_scaling import (
        DEFAULT_POLICIES,
        MIXES,
        run_sweep,
    )

    parser = argparse.ArgumentParser(
        prog="repro-experiment service",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options(duration_ms=2.0, seed=29),
                 _sweep_options()],
        description="Sweep the compression offload service "
                    "(offered load x fleet mix x dispatch policy).",
    )
    parser.add_argument("--load-gbps", type=float, nargs="+",
                        default=[8.0, 24.0, 48.0],
                        help="offered load points in GB/s")
    parser.add_argument("--policy", nargs="+", default=list(DEFAULT_POLICIES),
                        choices=list(DEFAULT_POLICIES),
                        help="dispatch policies to compare")
    parser.add_argument("--mix", nargs="+", default=["mixed"],
                        choices=sorted(MIXES),
                        help="fleet mixes to sweep")
    parser.add_argument("--no-spill", action="store_true",
                        help="disable the CPU-software spill device")
    args = parser.parse_args(argv)
    try:
        result = run_sweep(
            loads_gbps=tuple(args.load_gbps),
            policies=tuple(args.policy),
            mixes=tuple(args.mix),
            duration_ns=args.duration_ms * 1e6,
            tenants=args.tenants,
            seed=args.seed,
            spill=not args.no_spill,
            workers=args.workers,
        )
    except ReproError as error:
        print(f"repro-experiment service: error: {error}", file=sys.stderr)
        return 2
    print(result.table())
    _write_outputs(result, args)
    return 0


def store_main(argv: list[str]) -> int:
    """The ``store`` subcommand: block-store read/write/cache sweep."""
    from repro.experiments.store_scaling import DEFAULT_POLICIES, run_sweep
    from repro.service.policy import POLICIES

    parser = argparse.ArgumentParser(
        prog="repro-experiment store",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options(duration_ms=4.0, seed=31),
                 _sweep_options()],
        description="Sweep the compressed block store "
                    "(read fraction x cache size x dispatch policy).",
    )
    parser.add_argument("--read-fraction", type=float, nargs="+",
                        default=[0.5, 0.9],
                        help="fraction of operations that are reads")
    parser.add_argument("--cache-blocks", type=int, nargs="+",
                        default=[0, 64, 256],
                        help="decompressed-block cache sizes to sweep")
    parser.add_argument("--policy", nargs="+",
                        default=list(DEFAULT_POLICIES),
                        choices=sorted(POLICIES),
                        help="dispatch policies to compare")
    parser.add_argument("--load-gbps", type=float, default=36.0,
                        help="offered load in GB/s")
    parser.add_argument("--blocks", type=int, default=512,
                        help="logical block space size")
    parser.add_argument("--block-kib", type=int, default=64,
                        help="logical block size in KiB")
    parser.add_argument("--zipf-theta", type=float, default=0.99,
                        help="key-popularity skew (YCSB default 0.99)")
    parser.add_argument("--no-spill", action="store_true",
                        help="disable the CPU-software spill device")
    args = parser.parse_args(argv)
    try:
        result = run_sweep(
            read_fractions=tuple(args.read_fraction),
            cache_blocks=tuple(args.cache_blocks),
            policies=tuple(args.policy),
            offered_gbps=args.load_gbps,
            duration_ns=args.duration_ms * 1e6,
            blocks=args.blocks,
            block_bytes=args.block_kib * 1024,
            tenants=args.tenants,
            zipf_theta=args.zipf_theta,
            seed=args.seed,
            spill=not args.no_spill,
            workers=args.workers,
        )
    except ReproError as error:
        print(f"repro-experiment store: error: {error}", file=sys.stderr)
        return 2
    print(result.table())
    _write_outputs(result, args)
    return 0


def slo_main(argv: list[str]) -> int:
    """The ``slo`` subcommand: SLO-degradation (brown-out) sweep."""
    from repro.experiments.slo_degradation import (
        DEFAULT_POLICIES,
        SLO_MIXES,
        run_sweep,
    )
    from repro.service.policy import POLICIES

    parser = argparse.ArgumentParser(
        prog="repro-experiment slo",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options(duration_ms=3.0, seed=11),
                 _sweep_options()],
        description="Sweep SLO-class deadline-miss rates under a "
                    "mid-run device brown-out "
                    "(brown-out timing x SLO mix x policy).",
    )
    parser.add_argument("--brownout-at", type=float, nargs="+",
                        default=[0.33],
                        help="brown-out instants as fractions of the "
                             "stream duration (a healthy baseline run "
                             "is always included)")
    parser.add_argument("--speed-factor", type=float, default=0.15,
                        help="derated fraction of nominal device speed")
    parser.add_argument("--device", default="qat8970",
                        help="fleet device to brown out")
    parser.add_argument("--mix", nargs="+", default=["fg-heavy"],
                        choices=sorted(SLO_MIXES),
                        help="SLO mixes (interactive/batch blends)")
    parser.add_argument("--policy", nargs="+",
                        default=list(DEFAULT_POLICIES),
                        choices=sorted(POLICIES),
                        help="dispatch policies to compare")
    parser.add_argument("--load-gbps", type=float, default=40.0,
                        help="offered load in GB/s")
    parser.add_argument("--queue-limit", type=int, default=6,
                        help="per-device queue depth (shallow queues "
                             "push backpressure into the scheduler)")
    parser.add_argument("--spill", action="store_true",
                        help="add the CPU-software spill device")
    args = parser.parse_args(argv)
    try:
        result = run_sweep(
            brownout_fracs=(None, *args.brownout_at),
            mixes=tuple(args.mix),
            policies=tuple(args.policy),
            offered_gbps=args.load_gbps,
            duration_ns=args.duration_ms * 1e6,
            speed_factor=args.speed_factor,
            device=args.device,
            tenants=args.tenants,
            queue_limit=args.queue_limit,
            seed=args.seed,
            spill=args.spill,
            workers=args.workers,
        )
    except ReproError as error:
        print(f"repro-experiment slo: error: {error}", file=sys.stderr)
        return 2
    print(result.table())
    _write_outputs(result, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "cluster":
        return cluster_main(argv[1:])
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "federation":
        return federation_main(argv[1:])
    if argv and argv[0] == "worker":
        return worker_main(argv[1:])
    if argv and argv[0] == "service":
        return service_main(argv[1:])
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    if argv and argv[0] == "slo":
        return slo_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Reproduce figures/tables from the ASIC-CDPU paper.",
        epilog=CORRECTNESS_EPILOG,
    )
    parser.add_argument("names", nargs="*",
                        help="experiment ids (default: all), or the "
                             "'cluster'/'report'/'sweep'/'federation'/"
                             "'worker'/'service'/'store'/'slo' "
                             "subcommands (see e.g. "
                             "'repro-experiment sweep --help')")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale workloads instead of quick mode")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids")
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return 0
    names = args.names or sorted(REGISTRY)
    for subcommand in SUBCOMMANDS:
        if subcommand in names:
            # Flags placed before the subcommand land here; point at the
            # required ordering instead of "unknown experiment '...'".
            print(f"'{subcommand}' is a subcommand and must come first: "
                  f"repro-experiment {subcommand} [options] "
                  f"(see 'repro-experiment {subcommand} --help')",
                  file=sys.stderr)
            return 2
    for name in names:
        try:
            result = run_experiment(name, quick=not args.full)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        print(result.table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
