"""Minimal discrete-event simulation kernel.

A deliberately small, dependency-free engine: the :class:`Simulator`
advances virtual time in nanoseconds and runs *callbacks*, bare
callables scheduled with :meth:`Simulator.call_later`.  ``now``,
``call_later`` and ``run`` are its whole interface.  Device service
times are computed by the cycle models in :mod:`repro.hw`, so
microbenchmark and system-level results share one timing source.

The kernel is the hottest code in the repository — every simulated
request passes through it six or seven times — so the implementation
keeps its entries allocation-light:

* an entry due later than now is a ``(when, seq, callback)`` tuple on
  the heap; an entry due *at* the current instant (a zero-delay hop, a
  doorbell ring, an engine completion — about 40% of all entries) is
  the bare callable appended to a FIFO deque, the *lane*, so it pays
  neither an O(log n) push and pop nor a tuple;
* :meth:`Simulator.run` hoists its lookups and fires every entry of
  an instant from the lane, in one inner loop.

Every simulated activity in the package is a chain of callbacks; a
loop re-arms itself with ``call_later``, and a server with nothing
queued is simply idle rather than parked on a waiter object.  The
per-request path — the device doorbell queue and pre/engine/post
pipeline, the QoS engine slots, the block store and every client —
hops with ``functools.partial`` objects and bound methods, so ``run``
tests for those two types first.  The per-run sites — the fleet
controller's scheduled actions and drain polls, the metrics sampler
and the ``virt.tenancy`` tenants — are callbacks too.

:class:`Event` (a one-shot occurrence with waiters) and
:class:`Process` (a generator driven by the events it yields) are not
built by any module in the package.  They remain because the benchmark
harness's tracer imports ``Process`` and wraps ``Process._step``; the
run loop still fires an ``Event`` entry, for them and for tests.

Determinism is unchanged: entries fire in ``(when, seq)`` order and
``seq`` is a single monotone counter, so two runs of the same seeded
workload interleave identically.  A lane entry draws its ``seq`` too,
though it does not store it: every heap entry due at an instant T was
pushed before the clock reached T, so its ``seq`` is smaller than
that of any lane entry pushed at T, and firing T's heap entries first
and then the lane in FIFO order *is* ``(when, seq)`` order.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def tick(left):
...     log.append(sim.now)
...     if left > 1:
...         sim.call_later(5, partial(tick, left - 1))
>>> sim.call_later(5, partial(tick, 2))
>>> sim.run()
>>> log
[5.0, 10.0]
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence callbacks can wait on."""

    __slots__ = ("sim", "_callbacks", "triggered", "fired", "value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        # None -> no waiter yet; a callable -> exactly one waiter (the
        # overwhelmingly common case); a list -> several waiters.
        self._callbacks: Any = None
        self.triggered = False
        self.fired = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event; its waiters run this tick."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        sim = self.sim
        next(sim._sequence)
        sim._lane.append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; late registration still runs it."""
        if self.fired:
            # Waiting on an already-completed event resumes on the next
            # simulation step at the current time (e.g. waiting on a
            # completion that already happened).
            sim = self.sim
            next(sim._sequence)
            sim._lane.append(partial(callback, self))
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def _fire(self) -> None:
        self.fired = True
        callbacks = self._callbacks
        if callbacks is None:
            return
        self._callbacks = None
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        else:
            callbacks(self)


class Process(Event):
    """A running generator; completes when the generator returns.

    No module in the package builds one; the class (and so
    :class:`Event`, its base) stays for the benchmark harness's tracer,
    which wraps :meth:`_step`.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._generator = generator
        # Kick off on the next simulation step at the current time; the
        # bootstrap is a bare callable, so spawning a process costs no
        # extra Event.
        next(sim._sequence)
        sim._lane.append(self._start)

    def _start(self) -> None:
        self._step(None)

    def _resume(self, event: Event) -> None:
        self._step(event.value)

    def _step(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected Event"
            )
        if target.fired:
            target.add_callback(self._resume)
        else:
            # Inlined add_callback fast path: one attribute test per
            # yield instead of a method call.
            callbacks = target._callbacks
            if callbacks is None:
                target._callbacks = self._resume
            elif type(callbacks) is list:
                callbacks.append(self._resume)
            else:
                target._callbacks = [callbacks, self._resume]


class Simulator:
    """Event loop with a nanosecond virtual clock."""

    __slots__ = ("_now", "_queue", "_lane", "_sequence")

    def __init__(self) -> None:
        self._now = 0.0
        # Entries due after now, as (when, seq, item) heap tuples.
        self._queue: list[tuple[float, int, Any]] = []
        # Entries due at now, as bare items in seq order.
        self._lane: deque[Any] = deque()
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in nanoseconds."""
        return self._now

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> None:
        """Run a bare ``callback`` ``delay`` ns in the future.

        The only way to schedule work: the callable goes straight onto
        the queue and is invoked with no arguments when its time comes.
        A delay that lands on the current instant (zero, or small
        enough to round away at a large clock) puts it on the lane.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self._now + delay
        if when == self._now:
            next(self._sequence)
            self._lane.append(callback)
        else:
            heappush(self._queue, (when, next(self._sequence), callback))

    def run(self, until: float | None = None) -> None:
        """Run until nothing is scheduled or virtual time passes ``until``.

        Entries fire strictly in ``(when, seq)`` order.  At each instant
        the heap entries due then are moved onto the lane, which is
        drained in FIFO order; new entries scheduled *at* the current
        instant join the lane behind them, so the clock advances only
        once the lane is empty.  Entries already on the lane when
        ``run`` is entered fire at the current time.  ``until`` may not
        lie before the clock: time never moves backwards.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is before the clock ({self._now})"
            )
        queue = self._queue
        lane = self._lane
        popleft = lane.popleft
        append = lane.append
        while True:
            while lane:
                item = popleft()
                cls = item.__class__
                # Bare callbacks (the per-request data plane) are the
                # common entry, so they are tested first.
                if cls is partial or cls is MethodType:
                    item()
                elif cls is Event:
                    item._fire()
                elif isinstance(item, Event):  # Process and other subclasses
                    item._fire()
                else:
                    item()
            if not queue:
                break
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            self._now = when
            while queue and queue[0][0] == when:
                append(heappop(queue)[2])
        if until is not None:
            self._now = max(self._now, until)
