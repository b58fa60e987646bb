"""Minimal discrete-event simulation kernel.

A deliberately small, dependency-free engine in the style of SimPy:
*processes* are Python generators that ``yield`` events (timeouts,
resource grants, other processes), and the :class:`Simulator` advances
virtual time in nanoseconds.  Device service times are computed by the
cycle models in :mod:`repro.hw`, so microbenchmark and system-level
results share one timing source.

The kernel is the hottest code in the repository — every simulated
request crosses its heap six or seven times — so the implementation
trades a little uniformity for allocation-free fast paths:

* the event queue holds ``(when, seq, item)`` entries where ``item``
  is either an :class:`Event` to fire or a bare callable to invoke, so
  callbacks (process bootstrap, data-plane hops, batch timers,
  late-waiter relays) schedule without constructing an ``Event`` each;
* ``Event._callbacks`` stores ``None`` / a single callable / a list,
  in that order of escalation — almost every event has exactly one
  waiter, so the common case allocates nothing;
* :meth:`Simulator.run` hoists its lookups and fires all entries that
  share a timestamp in one inner loop.

The per-request path does not use processes at all: the device
submitter and pre/engine/post pipeline, the QoS engine loops, the
block store's hit and miss service and every client (open-loop
arrivals and windowed connections) are chains of bare callbacks
(``functools.partial`` objects and bound methods) that hop with
:meth:`Simulator.call_later` and :meth:`Event.add_callback`, so
``run`` tests for those two types first.  Generator processes remain
only where work is per run, not per request, and readability beats
the resume cost: the control plane (reconfiguration and the fleet
controller), the telemetry samplers and the ``virt.tenancy`` tenants.

Determinism is unchanged: entries fire in ``(when, seq)`` order and
``seq`` is a single monotone counter, so two runs of the same seeded
workload interleave identically.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim):
...     yield sim.timeout(5)
...     log.append(sim.now)
>>> _ = sim.spawn(worker(sim))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on."""

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
        """Trigger the event; waiting processes resume this tick."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        sim = self.sim
        heappush(sim._queue, (sim._now, next(sim._sequence), self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; late registration still runs it."""
        if self.fired:
            # Waiting on an already-completed event resumes on the next
            # simulation step at the current time (e.g. joining a
            # process that finished earlier).
            sim = self.sim
            heappush(sim._queue, (sim._now, next(sim._sequence),
                                  lambda: callback(self)))
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
    """A running generator; completes when the generator returns."""

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._generator = generator
        # Kick off on the next simulation step at the current time; the
        # bootstrap is a bare callable, so spawning a process costs no
        # extra Event.
        heappush(sim._queue, (sim._now, next(sim._sequence), self._start))

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

    __slots__ = ("_now", "_queue", "_sequence")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Any]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in nanoseconds."""
        return self._now

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Event that triggers ``delay`` ns in the future."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        event = Event(self)
        event.triggered = True  # scheduled, cannot be re-succeeded
        event.value = value
        heappush(self._queue, (self._now + delay, next(self._sequence),
                               event))
        return event

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> None:
        """Run a bare ``callback`` ``delay`` ns in the future.

        The allocation-free sibling of :meth:`timeout` for callers that
        do not need an :class:`Event` to wait on (batch flush timers,
        deferred bookkeeping): the callable goes straight onto the
        queue and is invoked with no arguments when its time comes.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(self._queue, (self._now + delay, next(self._sequence),
                               callback))

    def event(self) -> Event:
        """Untriggered event for manual signalling."""
        return Event(self)

    def spawn(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a process from a generator."""
        return Process(self, generator)

    def _schedule_event(self, event: Event) -> None:
        heappush(self._queue, (self._now, next(self._sequence), event))

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or virtual time passes ``until``.

        Entries fire strictly in ``(when, seq)`` order; all entries
        sharing a timestamp are drained in one inner loop (new entries
        scheduled *at* the current instant join the same batch).
        """
        queue = self._queue
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            if when < self._now - 1e-9:
                raise SimulationError("event scheduled in the past")
            self._now = when
            while queue and queue[0][0] == when:
                item = heappop(queue)[2]
                cls = item.__class__
                # Bare callbacks (the per-request data plane) are the
                # common entry, so they are tested first.
                if cls is partial or cls is MethodType:
                    item()
                elif cls is Event or cls is Process:
                    item._fire()
                elif isinstance(item, Event):
                    item._fire()
                else:
                    item()
        if until is not None:
            self._now = max(self._now, until)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that triggers once every listed event has triggered."""
        events = list(events)
        gate = Event(self)
        remaining = len(events)
        if remaining == 0:
            gate.succeed([])
            return gate
        results: list[Any] = [None] * remaining
        state = {"left": remaining}

        def make_callback(index: int) -> Callable[[Event], None]:
            def callback(event: Event) -> None:
                results[index] = event.value
                state["left"] -= 1
                if state["left"] == 0:
                    gate.succeed(results)
            return callback

        for index, event in enumerate(events):
            event.add_callback(make_callback(index))
        return gate


class Resource:
    """FIFO resource with fixed capacity (PCIe queue slots, engines...)."""

    __slots__ = ("sim", "capacity", "in_use", "_waiting",
                 "total_acquisitions", "peak_in_use")

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiting: deque[Event] = deque()
        self.total_acquisitions = 0
        self.peak_in_use = 0
        # The runtime sanitizer audits waiter queues at run end; a
        # plain Simulator has no hook, so this costs one getattr at
        # construction and nothing per event.
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)

    def acquire(self) -> Event:
        """Event that triggers when a slot is granted."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            self.peak_in_use = max(self.peak_in_use, self.in_use)
            self.total_acquisitions += 1
            event.succeed()
        else:
            self._waiting.append(event)
        return event

    def release(self) -> None:
        """Free a slot; the oldest waiter (if any) is granted."""
        if self.in_use <= 0:
            raise SimulationError("release without acquire")
        if self._waiting:
            waiter = self._waiting.popleft()
            self.total_acquisitions += 1
            waiter.succeed()
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiting)


class Store:
    """Unbounded FIFO queue of items passed between processes."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
