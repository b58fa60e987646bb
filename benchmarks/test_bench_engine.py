"""Event-kernel microbenchmarks: raw events/sec, no service layer.

The end-to-end trajectory benchmark (``benchmarks/trajectory.py``)
measures the whole serving stack, where scheduler and stats costs can
hide an engine regression.  These benchmarks time the kernel alone on
the shapes the hot-path rewrites optimised:

* **timeout storm** — thousands of processes sleeping in short hops,
  the allocation fast path (``timeout()``/``call_later`` push entries
  straight onto the heap; no bootstrap or relay Events);
* **store handoff** — callback producers and consumers passing items
  through :class:`~repro.sim.engine.Store` ``put``/``get``, the deque
  getter and item queues and the succeed/fire callback chain;
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
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.engine import Simulator, Store  # noqa: E402

#: CI smoke floor, events/sec.  Deliberately far below what the
#: rewritten kernel does on a developer machine (~200k-460k/s) — the
#: gate exists to catch catastrophic kernel regressions on any runner,
#: not scheduler jitter on a loaded shared one.
SMOKE_FLOOR_EPS = 50_000.0


def timeout_storm(processes: int = 200, hops: int = 50) -> int:
    """Processes sleeping in staggered hops; returns events fired."""
    sim = Simulator()

    def worker(sim: Simulator, offset: int):
        delay = 10.0 + (offset % 7)
        for _ in range(hops):
            yield sim.timeout(delay)

    for index in range(processes):
        sim.spawn(worker(sim, index))
    sim.run()
    return processes * hops


class _Handoff:
    """A producer putting ``items`` items into a Store, one every
    ``delay`` ns, and a consumer taking them with ``get`` and pausing
    1.5x ``delay`` between takes: early takes park a getter, later ones
    find items already queued."""

    __slots__ = ("sim", "store", "delay", "items", "produced", "received")

    def __init__(self, sim: Simulator, delay: float, items: int) -> None:
        self.sim = sim
        self.store = Store(sim)
        self.delay = delay
        self.items = items
        self.produced = 0
        self.received = 0

    def produce(self) -> None:
        self.store.put(self.produced)
        self.produced += 1
        if self.produced < self.items:
            self.sim.call_later(self.delay, self.produce)

    def consume(self) -> None:
        self.store.get().add_callback(self.take)

    def take(self, _event) -> None:
        self.received += 1
        if self.received < self.items:
            self.sim.call_later(1.5 * self.delay, self.consume)


def store_handoff(pairs: int = 100, items: int = 50) -> int:
    """Staggered producer/consumer pairs; returns items handed off."""
    sim = Simulator()
    built = [_Handoff(sim, 5.0 + (index % 7), items)
             for index in range(pairs)]
    for pair in built:
        sim.call_later(0.0, pair.consume)
        sim.call_later(0.0, pair.produce)
    sim.run()
    assert all(pair.received == items and not len(pair.store)
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
    """Raw timeout throughput: the kernel's allocation fast path."""
    events = benchmark(timeout_storm)
    benchmark.extra_info["events"] = events


def test_bench_engine_store_handoff(benchmark):
    """Waiter-queue churn: put/get over deque-backed Store queues."""
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
