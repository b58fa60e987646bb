"""Client handles a :class:`~repro.cluster.session.Cluster` hands out.

Three traffic shapes cover the serving regimes the paper's placements
are evaluated under:

* :class:`OpenLoopClient` — the arrival-rate-driven driver: requests
  arrive on a Poisson clock regardless of how the fleet is coping (the
  overload-revealing shape every sweep so far has used);
* :class:`ClosedLoopClient` — connection-level flow control: each
  client keeps at most ``window`` requests in flight and waits
  ``think_ns`` after every completion before submitting the next, so
  offered load *responds* to service latency the way a real
  application threadpool does;
* :class:`StoreClient` — mixed GET/PUT traffic against the compressed
  block-store tier, open-loop over a Zipfian block space by default,
  or windowed closed-loop (``window=N`` connections with think time)
  like :class:`ClosedLoopClient`.

Every client keeps its own latency recorder and goodput window, so a
run's :class:`~repro.cluster.result.RunResult` can report per-client
rows next to the fleet-wide service/store reports.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any

from repro.errors import ClusterError, StoreError
from repro.service.request import (
    BEST_EFFORT,
    OffloadRequest,
    OpenLoopStream,
    SloClass,
)
from repro.service.scheduler import SchedulerCore
from repro.sim.stats import LatencyRecorder
from repro.store.store import CompressedBlockStore
from repro.workloads.mixed import MixedStream
from repro.workloads.zipf import ScrambledZipfian


def _validate_window_args(name: str, window: int | None,
                          think_ns: float,
                          retry_backoff_ns: float) -> None:
    """Shared closed-loop knob validation (window may be None for
    clients where windowing is optional)."""
    if window is not None and window < 1:
        raise ClusterError(f"{name}: window must be >= 1, got {window}")
    if think_ns < 0:
        raise ClusterError(f"{name}: think time must be >= 0, "
                           f"got {think_ns}")
    if retry_backoff_ns <= 0:
        # A shed can fire its completion callback synchronously inside
        # submit(); retrying with no backoff would spin the connection
        # at one virtual instant forever when the fleet is saturated.
        raise ClusterError(f"{name}: retry backoff must be > 0, "
                           f"got {retry_backoff_ns}")


class ClusterClient:
    """Shared per-client accounting; subclasses drive the traffic."""

    mode = "client"

    def __init__(self, scheduler: SchedulerCore, name: str,
                 duration_ns: float) -> None:
        if duration_ns <= 0:
            raise ClusterError(f"client duration must be > 0, "
                               f"got {duration_ns}")
        self.scheduler = scheduler
        self.sim = scheduler.sim
        self.name = name
        self.duration_ns = duration_ns
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.completed_bytes = 0
        #: Bytes completed inside this client's own duration window.
        self.window_bytes = 0
        self.latency = LatencyRecorder()
        self._on_done = None

    def start(self, on_done=None) -> None:
        """Schedule this client's first arrivals on the simulator."""
        self._on_done = on_done
        self._spawn()

    def _spawn(self) -> None:
        raise NotImplementedError

    def _done(self) -> None:
        if self._on_done is not None:
            self._on_done(self)

    # -- windowed-connection machinery (clients that set window/think/
    # retry_backoff and _live_connections; shared so the store and
    # service closed-loop protocols cannot silently diverge) -----------------
    #
    # A connection is a chain of kernel callbacks: ``_issue`` submits
    # one op, the op's completion or drop hook calls ``_op_finished``,
    # which relays to ``_pace`` through a zero-delay entry, and
    # ``_pace`` issues the next op now or after a delay.  The relay
    # keeps the next submission out of the completion chain: it runs
    # after the scheduler's ``pump()`` at the same instant.

    def _start_connection(self, connection: Any) -> None:
        self._live_connections += 1
        self.sim.call_later(0.0, partial(self._issue, connection))

    def _issue(self, connection: Any) -> None:
        """Submit the connection's next op, or close it at the window's
        end.  Subclasses submit through :meth:`_track_submit`."""
        raise NotImplementedError

    def _track_submit(self) -> None:
        self.submitted += 1
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def _op_finished(self, connection: Any, outcome: str) -> None:
        self.inflight -= 1
        self.sim.call_later(0.0, partial(self._pace, connection, outcome))

    def _pace(self, connection: Any, outcome: str) -> None:
        """Post-completion pacing: back off after a drop (a saturated
        fleet sheds synchronously, and an instant resubmit would freeze
        virtual time in a shed storm), think after a completion."""
        if outcome == "dropped":
            self.sim.call_later(self.retry_backoff_ns,
                                partial(self._issue, connection))
        elif self.think_ns > 0:
            self.sim.call_later(self.think_ns,
                                partial(self._issue, connection))
        else:
            self._issue(connection)

    def _connection_done(self) -> None:
        self._live_connections -= 1
        if self._live_connections == 0:
            self._done()

    # -- completion accounting -------------------------------------------------

    def _record_completion(self, request: OffloadRequest) -> None:
        self.completed += 1
        self.completed_bytes += request.nbytes
        self.latency.record(self.sim.now - request.arrival_ns)
        if self.sim.now <= self.duration_ns:
            self.window_bytes += request.nbytes

    @property
    def goodput_gbps(self) -> float:
        """Per-client goodput over the client's window (bytes/ns)."""
        return self.window_bytes / self.duration_ns

    def row(self) -> dict:
        """Flat per-client row for the unified RunResult."""
        summary = self.latency.summary_us()
        return {
            "client": self.name,
            "mode": self.mode,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "goodput_gbps": self.goodput_gbps,
            "p50_us": summary["p50_us"],
            "p99_us": summary["p99_us"],
        }


class OpenLoopClient(ClusterClient):
    """Drives an :class:`~repro.service.request.OpenLoopStream`.

    Arrivals follow the stream's Poisson clock whether or not the fleet
    keeps up — queueing delay and shedding are the signal, not a brake.
    """

    mode = "open-loop"

    def __init__(self, scheduler: SchedulerCore, stream: OpenLoopStream,
                 name: str = "open-loop") -> None:
        super().__init__(scheduler, name, stream.duration_ns)
        self.stream = stream

    # The hottest client path in the repo (every open-loop request passes
    # through once), so it is a callback chain, not a process: each
    # arrival is one heap entry that submits and schedules the next.

    def _spawn(self) -> None:
        self._rng = self.stream.rng()
        diurnal = getattr(self.stream, "diurnal", None)
        self._rate_at = diurnal.rate_at if diurnal is not None else None
        self.sim.call_later(0.0, self._schedule_arrival)

    def _schedule_arrival(self) -> None:
        gap = self.stream.next_gap_ns(self._rng)
        if self._rate_at is not None:
            # Diurnal pacing (PopulationStream): divide each Poisson gap
            # by the rate factor at the instant the gap is drawn.  Plain
            # streams skip the division, so their arithmetic is
            # untouched (golden sweeps pin it).
            gap /= self._rate_at(self.sim.now)
        self.sim.call_later(gap, self._arrive)

    def _arrive(self) -> None:
        stream = self.stream
        if self.sim.now >= stream.duration_ns:
            self._done()
            return
        self.submitted += 1
        self.scheduler.submit(stream.make_request(self._rng),
                              on_complete=self._complete,
                              on_drop=self._drop)
        self._schedule_arrival()

    def _complete(self, request: OffloadRequest, device, cost) -> None:
        self._record_completion(request)

    def _drop(self, request: OffloadRequest) -> None:
        self.failed += 1


class ClosedLoopClient(ClusterClient):
    """Windowed flow control: at most ``window`` requests in flight.

    The client models an application threadpool of ``window``
    connections.  Each connection submits one request, waits for its
    completion (or drop), thinks for ``think_ns``, and only then
    submits the next — so in-flight never exceeds the window and
    offered load self-throttles when the fleet slows down.  A dropped
    request waits ``retry_backoff_ns`` instead of the think time
    before the connection issues new work.  Per-client latency and
    goodput come out of the shared :class:`ClusterClient` accounting.
    """

    mode = "closed-loop"

    def __init__(self, scheduler: SchedulerCore, *,
                 window: int,
                 duration_ns: float,
                 think_ns: float = 0.0,
                 retry_backoff_ns: float = 1_000.0,
                 tenant: int = 0,
                 request_sizes: tuple[int, ...] = (16384, 65536, 131072),
                 ratio_range: tuple[float, float] = (0.30, 1.0),
                 op: str = "compress",
                 slo: SloClass = BEST_EFFORT,
                 seed: int = 1234,
                 name: str = "closed-loop") -> None:
        super().__init__(scheduler, name, duration_ns)
        _validate_window_args(name, window, think_ns, retry_backoff_ns)
        if not request_sizes:
            raise ClusterError(f"{name}: need at least one request size")
        self.window = window
        self.think_ns = think_ns
        self.retry_backoff_ns = retry_backoff_ns
        self.tenant = tenant
        self.request_sizes = tuple(request_sizes)
        self.ratio_range = ratio_range
        self.op = op
        self.slo = slo
        self.seed = seed
        self.inflight = 0
        self.peak_inflight = 0
        self._live_connections = 0

    def _spawn(self) -> None:
        for connection in range(self.window):
            self._start_connection(
                random.Random(f"{self.seed}/{connection}/{self.name}"))

    def _make_request(self, rng: random.Random) -> OffloadRequest:
        low, high = self.ratio_range
        return OffloadRequest(
            tenant=self.tenant,
            nbytes=rng.choice(self.request_sizes),
            ratio=rng.uniform(low, high),
            op=self.op,
            slo=self.slo,
        )

    def _issue(self, rng: random.Random) -> None:
        if self.sim.now >= self.duration_ns:
            self._connection_done()
            return
        request = self._make_request(rng)
        self._track_submit()
        self.scheduler.submit(request,
                              on_complete=partial(self._complete, rng),
                              on_drop=partial(self._drop, rng))

    def _complete(self, rng: random.Random, request: OffloadRequest,
                  device, cost) -> None:
        self._record_completion(request)
        self._op_finished(rng, "completed")

    def _drop(self, rng: random.Random, request: OffloadRequest) -> None:
        self.failed += 1
        self._op_finished(rng, "dropped")

    def row(self) -> dict:
        row = super().row()
        row["window"] = self.window
        row["peak_inflight"] = self.peak_inflight
        return row


class StoreClient(ClusterClient):
    """Drives mixed GET/PUT traffic against the block-store tier.

    Two serving shapes, selected by ``window``:

    * ``window=None`` (default) — open loop: operations arrive on the
      stream's Poisson clock whatever the store's latency looks like.
      Completion accounting lives in the store's own metrics (hit/miss
      split, coalescing); the client row reports op counts and the
      store-level goodput for its window.
    * ``window=N`` — closed loop: ``N`` connections each keep one
      operation in flight, wait for its completion (via the store's
      ``on_done`` hooks, so a coalesced read completes when the shared
      decompress lands), think ``think_ns``, then issue the next.  A
      dropped operation backs off ``retry_backoff_ns`` instead of the
      think time.  The stream still supplies the op mix, key
      popularity and duration; its ``offered_gbps`` is ignored because
      flow control sets the rate.  Per-op latency and goodput come out
      of the client's own accounting, mirroring
      :class:`ClosedLoopClient`.
    """

    mode = "store"

    def __init__(self, store: CompressedBlockStore, stream: MixedStream,
                 name: str = "store", preload: bool = True,
                 window: int | None = None,
                 think_ns: float = 0.0,
                 retry_backoff_ns: float = 1_000.0) -> None:
        super().__init__(store.scheduler, name, stream.duration_ns)
        if stream.block_bytes != store.block_bytes:
            raise StoreError(
                f"{name}: stream block size {stream.block_bytes} != "
                f"store block size {store.block_bytes}"
            )
        _validate_window_args(name, window, think_ns, retry_backoff_ns)
        self.store = store
        self.stream = stream
        self.preload = preload
        self.window = window
        self.think_ns = think_ns
        self.retry_backoff_ns = retry_backoff_ns
        self.mode = "store" if window is None else "store-closed"
        self.reads = 0
        self.writes = 0
        self.inflight = 0
        self.peak_inflight = 0
        self._live_connections = 0

    def _spawn(self) -> None:
        if self.preload and len(self.store.blockmap) == 0:
            # Give every logical block an initial extent so reads
            # always resolve.
            self.store.load(self.stream.blocks,
                            ratio_range=self.stream.ratio_range,
                            seed=self.stream.seed + 2)
        # The measurement horizon on the store is owned by Cluster.run
        # (the longest client duration), not reset per client.
        stream = self.stream
        if self.window is None:
            self._rng = stream.rng()
            self._keys = stream.key_generator()
            self.sim.call_later(0.0, self._schedule_arrival)
            return
        for index in range(self.window):
            # String-derived key seed: integer offsets from stream.seed
            # would collide with the preload RNG (seed + 2) and the
            # shared open-loop key stream (seed + 1).
            self._start_connection((
                random.Random(f"{stream.seed}/{index}/{self.name}"),
                ScrambledZipfian(stream.blocks, theta=stream.zipf_theta,
                                 seed=f"{stream.seed}/keys/{index}")))

    # -- open-loop arrivals ------------------------------------------------------

    def _schedule_arrival(self) -> None:
        self.sim.call_later(self.stream.next_gap_ns(self._rng), self._arrive)

    def _arrive(self) -> None:
        if self.sim.now >= self.stream.duration_ns:
            self._done()
            return
        op = self.stream.make_op(self._rng, self._keys)
        self.submitted += 1
        if op.kind == "read":
            self.reads += 1
            self.store.get(op.block, op.tenant)
        else:
            self.writes += 1
            self.store.put(op.block, op.tenant, op.ratio)
        self._schedule_arrival()

    # -- closed-loop connections -----------------------------------------------

    def _issue(self, connection: tuple[random.Random,
                                       ScrambledZipfian]) -> None:
        if self.sim.now >= self.duration_ns:
            self._connection_done()
            return
        rng, keys = connection
        op = self.stream.make_op(rng, keys)
        self._track_submit()
        done = partial(self._op_done, connection, self.sim.now)
        if op.kind == "read":
            self.reads += 1
            self.store.get(op.block, op.tenant, on_done=done)
        else:
            self.writes += 1
            self.store.put(op.block, op.tenant, op.ratio, on_done=done)

    def _op_done(self, connection: tuple[random.Random, ScrambledZipfian],
                 started: float, outcome: str) -> None:
        if outcome == "completed":
            block_bytes = self.stream.block_bytes
            self.completed += 1
            self.latency.record(self.sim.now - started)
            self.completed_bytes += block_bytes
            if self.sim.now <= self.duration_ns:
                self.window_bytes += block_bytes
        else:
            self.failed += 1
        self._op_finished(connection, outcome)

    @property
    def goodput_gbps(self) -> float:
        if self.window is not None:
            return self.window_bytes / self.duration_ns
        metrics = self.store.metrics
        return ((metrics.window_read_bytes + metrics.window_write_bytes)
                / self.duration_ns)

    def row(self) -> dict:
        if self.window is not None:
            row = super().row()
            row["window"] = self.window
            row["peak_inflight"] = self.peak_inflight
            return row
        summary = self.store.metrics.read_latency.summary_us()
        return {
            "client": self.name,
            "mode": self.mode,
            "submitted": self.submitted,
            "completed": self.store.metrics.reads + self.store.metrics.writes
            - self.store.metrics.failed_reads
            - self.store.metrics.failed_writes,
            "failed": (self.store.metrics.failed_reads
                       + self.store.metrics.failed_writes),
            "goodput_gbps": self.goodput_gbps,
            "p50_us": summary["p50_us"],
            "p99_us": summary["p99_us"],
        }
