"""Event-kernel microbenchmarks: raw events/sec, no service layer.

The end-to-end trajectory benchmark (``benchmarks/trajectory.py``)
measures the whole serving stack, where scheduler and stats costs can
hide an engine regression.  These benchmarks time the kernel alone on
the shapes the hot-path rewrites optimised:

* **timeout storm** — hundreds of callbacks sleeping in short
  staggered hops, each re-arming itself with ``call_later``: the
  kernel's heap push and pop with no allocation beyond the entry;
* **store handoff** — producers launching items into a ``deque``
  doorbell queue and consumers serving them one at a time, the shape of
  the fleet's doorbell queue: an item that finds its consumer idle
  rings it with a zero-delay hop, later ones wait in the deque;
* **callback chains** — many ``call_later`` chains alternating
  ``functools.partial`` and bound-method entries, the process-free
  shape of the per-request data plane and the run loop's first test;
* **same-instant fan-out** — chains whose every hop fans out into
  zero-delay callbacks, the same-instant lane that doorbell rings,
  engine completions and event waiters go through.

Run under pytest-benchmark for calibrated numbers, or as a script
(``python benchmarks/test_bench_engine.py``) for the CI smoke mode:
best-of-3 events/sec per workload with a loose floor that catches
"the kernel got an order of magnitude slower", not scheduler jitter.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.engine import Simulator  # noqa: E402

#: CI smoke floor, events/sec.  Deliberately far below what the
#: rewritten kernel does on a developer machine (~200k-460k/s) — the
#: gate exists to catch catastrophic kernel regressions on any runner,
#: not scheduler jitter on a loaded shared one.
SMOKE_FLOOR_EPS = 50_000.0


class _Sleeper:
    """A callback that sleeps ``delay`` ns between wake-ups, re-arming
    itself until ``left`` reaches zero."""

    __slots__ = ("sim", "delay", "left")

    def __init__(self, sim: Simulator, delay: float, hops: int) -> None:
        self.sim = sim
        self.delay = delay
        self.left = hops

    def wake(self) -> None:
        self.left -= 1
        if self.left > 0:
            self.sim.call_later(self.delay, self.wake)


def timeout_storm(sleepers: int = 200, hops: int = 50) -> int:
    """Callbacks sleeping in staggered hops; returns wake-ups fired."""
    sim = Simulator()
    built = [_Sleeper(sim, 10.0 + (index % 7), hops)
             for index in range(sleepers)]
    for sleeper in built:
        sim.call_later(sleeper.delay, sleeper.wake)
    sim.run()
    assert all(sleeper.left == 0 for sleeper in built)
    return sleepers * hops


class _Handoff:
    """A producer launching ``items`` items into a doorbell deque, one
    every ``delay`` ns, and a consumer serving them one at a time for
    1.5x ``delay`` each: early items find the consumer idle and ring it
    at once, later ones wait behind the item in service (the deque's
    head)."""

    __slots__ = ("sim", "queue", "delay", "items", "produced", "received")

    def __init__(self, sim: Simulator, delay: float, items: int) -> None:
        self.sim = sim
        self.queue: deque[int] = deque()
        self.delay = delay
        self.items = items
        self.produced = 0
        self.received = 0

    def produce(self) -> None:
        queue = self.queue
        queue.append(self.produced)
        if len(queue) == 1:
            self.sim.call_later(0.0, partial(self.ring, self.produced))
        self.produced += 1
        if self.produced < self.items:
            self.sim.call_later(self.delay, self.produce)

    def ring(self, item: int) -> None:
        self.sim.call_later(1.5 * self.delay, partial(self.rung, item))

    def rung(self, item: int) -> None:
        queue = self.queue
        queue.popleft()
        self.received += 1
        if queue:
            self.sim.call_later(0.0, partial(self.ring, queue[0]))


def store_handoff(pairs: int = 100, items: int = 50) -> int:
    """Staggered producer/consumer pairs; returns items handed off."""
    sim = Simulator()
    built = [_Handoff(sim, 5.0 + (index % 7), items)
             for index in range(pairs)]
    for pair in built:
        sim.call_later(0.0, pair.produce)
    sim.run()
    assert all(pair.received == items and not pair.queue
               for pair in built)
    return pairs * items


class _Chain:
    """One callback chain: a bound-method hop schedules a partial relay,
    which schedules the next hop, until ``left`` reaches zero."""

    __slots__ = ("sim", "delay", "left")

    def __init__(self, sim: Simulator, delay: float, hops: int) -> None:
        self.sim = sim
        self.delay = delay
        self.left = hops

    def hop(self) -> None:
        self.left -= 1
        if self.left > 0:
            self.sim.call_later(self.delay, partial(self.relay, self.delay))

    def relay(self, delay: float) -> None:
        self.left -= 1
        if self.left > 0:
            self.sim.call_later(delay, self.hop)


def callback_chains(chains: int = 200, hops: int = 50) -> int:
    """Staggered bare-callback chains; returns callbacks fired."""
    sim = Simulator()
    built = [_Chain(sim, 10.0 + (index % 7), hops)
             for index in range(chains)]
    for chain in built:
        sim.call_later(0.0, chain.hop)
    sim.run()
    assert all(chain.left == 0 for chain in built)
    return chains * hops


class _Fanout:
    """One chain: each hop fans out ``width`` zero-delay callbacks, and
    the last of them schedules the next hop ``delay`` ns ahead."""

    __slots__ = ("sim", "delay", "width", "left", "fired")

    def __init__(self, sim: Simulator, delay: float, width: int,
                 hops: int) -> None:
        self.sim = sim
        self.delay = delay
        self.width = width
        self.left = hops
        self.fired = 0

    def hop(self) -> None:
        call_later = self.sim.call_later
        for index in range(self.width):
            call_later(0.0, partial(self.leaf, index))

    def leaf(self, index: int) -> None:
        self.fired += 1
        if index == self.width - 1:
            self.left -= 1
            if self.left > 0:
                self.sim.call_later(self.delay, self.hop)


def same_instant_fanout(chains: int = 100, hops: int = 20,
                        width: int = 4) -> int:
    """Staggered fan-out chains; returns callbacks fired."""
    sim = Simulator()
    built = [_Fanout(sim, 10.0 + (index % 7), width, hops)
             for index in range(chains)]
    for chain in built:
        sim.call_later(0.0, chain.hop)
    sim.run()
    assert all(chain.left == 0 and chain.fired == hops * width
               for chain in built)
    return chains * hops * (width + 1)


def test_bench_engine_timeout_storm(benchmark):
    """Raw timer throughput: self-re-arming sleeper callbacks."""
    events = benchmark(timeout_storm)
    benchmark.extra_info["events"] = events


def test_bench_engine_store_handoff(benchmark):
    """Doorbell-queue churn: deque handoffs rung by zero-delay hops."""
    events = benchmark(store_handoff)
    benchmark.extra_info["handoffs"] = events


def test_bench_engine_callback_chains(benchmark):
    """Bare-callback throughput: partial and bound-method entries."""
    events = benchmark(callback_chains)
    benchmark.extra_info["callbacks"] = events


def test_bench_engine_same_instant_fanout(benchmark):
    """Same-instant throughput: zero-delay entries on the lane."""
    events = benchmark(same_instant_fanout)
    benchmark.extra_info["callbacks"] = events


def test_engine_events_per_sec_floor():
    """Smoke acceptance: every workload clears the (loose) CI floor."""
    for name, rate in _measure().items():
        assert rate > SMOKE_FLOOR_EPS, (
            f"{name} ran at {rate:,.0f} events/s, below the "
            f"{SMOKE_FLOOR_EPS:,.0f} smoke floor — the event kernel "
            f"regressed catastrophically"
        )


def _measure(repeats: int = 3) -> dict[str, float]:
    """Best-of-``repeats`` events/sec for each workload."""
    rates: dict[str, float] = {}
    for name, workload in (("timeout_storm", timeout_storm),
                           ("store_handoff", store_handoff),
                           ("callback_chains", callback_chains),
                           ("same_instant_fanout", same_instant_fanout)):
        workload()  # warm-up, untimed
        best = float("inf")
        events = 0
        for _ in range(repeats):
            start = time.perf_counter()
            events = workload()
            best = min(best, time.perf_counter() - start)
        rates[name] = events / best
    return rates


def main() -> int:
    rates = _measure()
    failures = []
    for name, rate in rates.items():
        print(f"engine {name}: {rate:,.0f} events/s")
        if rate <= SMOKE_FLOOR_EPS:
            failures.append(name)
    if failures:
        print(f"ENGINE REGRESSION: {', '.join(failures)} below "
              f"{SMOKE_FLOOR_EPS:,.0f} events/s floor", file=sys.stderr)
        return 1
    print("engine microbenchmark healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
