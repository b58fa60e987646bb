"""Executes a sweep grid: inline or across authenticated workers.

Each grid point is an independent simulation — the sweeps are
embarrassingly parallel, so :class:`SweepRunner` runs them either
inline (``workers=0``) or over the keyed socket workers of
:mod:`repro.federation.dispatch` (forked localhost processes, or
pre-started remote ones).  Every point's RNGs are seeded from the
spec's root seed and the point's own coordinates (never from execution
order), so a parallel run produces row-for-row identical results to a
serial one.

Device cost-model calibration runs the real codecs and is cached
process-wide (:mod:`repro.cluster.session`); the runner pre-warms that
cache for every distinct device in the grid *before* forking, so
worker processes inherit calibrated models instead of re-running the
codecs once per worker.
"""

from __future__ import annotations

from contextlib import closing, nullcontext
from typing import Callable

from repro.cluster.session import Cluster, build_device, calibrated_models
from repro.cluster.result import RunResult
from repro.errors import ReproError, SweepError
from repro.service.request import OpenLoopStream
from repro.sweep.result import SweepFailure, SweepResult
from repro.sweep.spec import SweepPoint, SweepSpec, WorkloadSpec
from repro.workloads.population import PopulationStream, realize_population

#: Progress callback signature: (completed points, total points, point).
ProgressFn = Callable[[int, int, SweepPoint], None]


def build_open_loop_stream(workload: WorkloadSpec, seed: int,
                           slo_mix=None) -> OpenLoopStream:
    """The open-loop stream a :class:`WorkloadSpec` describes.

    A plain spec builds the classic :class:`OpenLoopStream`
    (byte-identical to what ``cluster.open_loop(**kwargs)`` wired
    before populations existed); specs declaring ``population`` and/or
    ``diurnal`` sections build a
    :class:`~repro.workloads.population.PopulationStream` over the
    (cached) realized population.  Shared by the sweep runner and the
    federation driver.
    """
    if workload.population is None and workload.diurnal is None:
        return OpenLoopStream(offered_gbps=workload.offered_gbps,
                              duration_ns=workload.duration_ns,
                              tenants=workload.tenants,
                              slo_mix=slo_mix, seed=seed)
    population = (realize_population(workload.population)
                  if workload.population is not None else None)
    return PopulationStream(offered_gbps=workload.offered_gbps,
                            duration_ns=workload.duration_ns,
                            tenants=workload.tenants,
                            slo_mix=slo_mix, seed=seed,
                            population=population,
                            diurnal=workload.diurnal)


def attach_workload(cluster: Cluster, workload: WorkloadSpec,
                    seed: int) -> None:
    """Attach the clients a :class:`WorkloadSpec` describes.

    ``seed`` is the point's derived stream seed; closed-loop clients
    get per-connection offsets from it, mirroring what the hand-wired
    experiments did.
    """
    if workload.mode == "open-loop":
        cluster.open_loop(build_open_loop_stream(
            workload, seed, slo_mix=cluster.default_slo_mix()))
    elif workload.mode == "closed-loop":
        for index in range(workload.clients):
            cluster.closed_loop(window=workload.window,
                                duration_ns=workload.duration_ns,
                                think_ns=workload.think_ns,
                                tenant=index % workload.tenants,
                                seed=seed + index,
                                name=f"client{index}")
    else:  # "store" — expand() guarantees the spec has a store section
        cluster.store_client(offered_gbps=workload.offered_gbps,
                             duration_ns=workload.duration_ns,
                             read_fraction=workload.read_fraction,
                             blocks=workload.blocks,
                             tenants=workload.tenants,
                             zipf_theta=workload.zipf_theta,
                             seed=seed)


def run_point(point: SweepPoint) -> RunResult:
    """Build, drive and report one fully-resolved grid point."""
    cluster = Cluster.from_spec(point.cluster)
    attach_workload(cluster, point.workload, point.seed)
    return cluster.run()


def execute_point(point: SweepPoint
                  ) -> tuple[int, RunResult | None, str | None]:
    """Run one point, never raising: ``(index, run, error)`` with the
    error as a picklable string.  Both backends execute through this."""
    try:
        return point.index, run_point(point), None
    except ReproError as error:
        return point.index, None, f"{type(error).__name__}: {error}"


class SweepRunner:
    """Runs every point of a :class:`SweepSpec` and collects results.

    ``workers=0`` (and no ``hosts``) executes inline, the deterministic
    reference order; ``workers=N`` fans points out over ``N`` forked
    localhost workers keyed with a fresh random key, and ``hosts``
    drives pre-started ``repro-experiment worker`` processes that share
    the ``REPRO_WORKER_KEY`` key.  Either way the result rows come back
    in grid order and are identical for the same root seed.
    ``on_error`` is ``"raise"`` (fail fast, default) or ``"continue"``
    (record the failure, keep sweeping); ``progress`` (if given) is
    called in the driver as each point lands.

    ``distributed`` selects nothing: it only asks for the check that
    ``workers >= 1`` or ``hosts`` is given.  It stays for the frozen
    benchmark's callers, and the next benchmark change removes it.
    """

    def __init__(self, spec: SweepSpec, *,
                 workers: int = 0,
                 on_error: str = "raise",
                 progress: ProgressFn | None = None,
                 distributed: bool = False,
                 hosts: list | None = None,
                 heartbeat_timeout_s: float = 10.0,
                 max_requeues: int = 1) -> None:
        if workers < 0:
            raise SweepError(f"workers must be >= 0, got {workers}")
        if on_error not in ("raise", "continue"):
            raise SweepError(
                f"on_error must be 'raise' or 'continue', got {on_error!r}"
            )
        if distributed and hosts is None and workers < 1:
            raise SweepError(
                "distributed sweeps without explicit hosts spawn local "
                "workers; pass workers >= 1"
            )
        self.spec = spec
        self.workers = workers
        self.on_error = on_error
        self.progress = progress
        self.hosts = hosts
        if hosts is not None:
            # Imported lazily: repro.federation.dispatch imports this
            # module for the worker-side point executor.
            from repro.federation.dispatch import worker_key
            self._authkey = worker_key()
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_requeues = max_requeues
        #: Populated by the workers backend after a run: requeue count
        #: and dead-worker labels (``SocketWorkerPool`` attributes).
        self.dispatch_requeues = 0
        self.dispatch_dead_workers: list[str] = []

    # -- calibration pre-warm --------------------------------------------------

    def warm_calibration(self, points: tuple[SweepPoint, ...]) -> int:
        """Calibrate every distinct (device, ops) combo once, up front.

        Returns the number of distinct combos warmed.  Called before
        forking so workers inherit the populated cache.
        """
        seen: set[tuple] = set()
        for point in points:
            fleet = point.cluster.fleet
            specs = list(fleet.devices)
            if fleet.spill is not None:
                specs.append(fleet.spill)
            for device_spec in specs:
                key = (device_spec.cache_key(), fleet.ops)
                if key in seen:
                    continue
                seen.add(key)
                calibrated_models(device_spec, build_device(device_spec),
                                  fleet.ops)
        return len(seen)

    # -- execution -------------------------------------------------------------

    def run(self) -> SweepResult:
        points = self.spec.expand()
        if not points:
            raise SweepError(
                f"sweep expands to zero points (grid size "
                f"{self.spec.grid_size()}, all filtered out)"
            )
        self.warm_calibration(points)
        result = SweepResult(spec=self.spec, points=points,
                             results=[None] * len(points))
        if self.workers == 0 and self.hosts is None:
            self._run_inline(points, result)
        else:
            self._run_workers(points, result)
        # Worker completions arrive in arbitrary order; reports must not.
        result.failures.sort(key=lambda failure: failure.index)
        return result

    def _record(self, result: SweepResult, done: int, index: int,
                run: RunResult | None, error: str | None) -> None:
        point = result.points[index]
        if run is not None:
            result.results[index] = run
        else:
            if self.on_error == "raise":
                raise SweepError(f"{point.describe()} failed: {error}")
            result.failures.append(SweepFailure(
                index=index, coords=point.coords, error=error))
        if self.progress is not None:
            self.progress(done, len(result.points), point)

    def _run_inline(self, points: tuple[SweepPoint, ...],
                    result: SweepResult) -> None:
        for done, point in enumerate(points, start=1):
            self._record(result, done, *execute_point(point))

    def _run_workers(self, points: tuple[SweepPoint, ...],
                     result: SweepResult) -> None:
        """Fan points out over keyed socket workers.

        Local workers fork after the calibration warm-up, so they
        inherit the cache.  A fail-fast error closes the dispatch
        stream, which stops every worker after its current point.
        """
        from repro.federation.dispatch import (
            SocketWorkerPool,
            spawn_local_workers,
        )
        if self.hosts is None:
            fleet = spawn_local_workers(self.workers)
        else:
            fleet = nullcontext((self.hosts, self._authkey))
        with fleet as (hosts, authkey):
            pool = SocketWorkerPool(
                hosts, authkey=authkey,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
                max_requeues=self.max_requeues)
            with closing(pool.imap(points)) as outcomes:
                for done, (index, run, error) in enumerate(outcomes,
                                                           start=1):
                    self._record(result, done, index, run, error)
        self.dispatch_requeues = pool.requeues
        self.dispatch_dead_workers = list(pool.dead_workers)


def run_sweep_spec(spec: SweepSpec, *, workers: int = 0,
                   on_error: str = "raise",
                   progress: ProgressFn | None = None,
                   hosts: list | None = None) -> SweepResult:
    """One-call convenience: ``SweepRunner(spec, ...).run()``."""
    return SweepRunner(spec, workers=workers, on_error=on_error,
                       progress=progress, hosts=hosts).run()
