"""Device-side arbitration between virtual functions (paper §5.5.2).

Two arbiters over the same engine pool:

* :class:`FcfsArbiter` — one shared FIFO (QAT): whoever enqueues first
  is served first, so a bursty tenant monopolizes the engines and the
  hardware queue ceiling blocks everyone else's submissions;
* :class:`FairArbiter` — per-VF queues served round-robin (DP-CSD's
  front-end QoS): each VF gets an equal share of engine passes
  regardless of how deeply its neighbours queue.

Both are real queues on the DES, not closed-form formulas:
the CV gap in Figure 20 *emerges* from the scheduling discipline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator


@dataclass(slots=True)
class VfRequest:
    """One tenant request passing through the device."""

    vf_index: int
    nbytes: int
    service_ns: float
    done: Event = None  # type: ignore[assignment]


class _ArbiterBase:
    """Engine-slot dispatch shared by both policies.

    Each engine slot is a chain of kernel callbacks, not a process: an
    idle engine parks a callback on the shared wakeup event, a busy one
    schedules its own completion ``service_ns`` ahead and pulls the
    next request when it fires.
    """

    def __init__(self, sim: Simulator, engine_slots: int) -> None:
        if engine_slots < 1:
            raise SimulationError("need at least one engine slot")
        self.sim = sim
        self.engine_slots = engine_slots
        self._wakeup: Event | None = None
        # Let the runtime sanitizer audit arbiter queues at run end.
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)
        for _ in range(engine_slots):
            sim.call_later(0.0, self._next_request)

    # -- subclass interface --

    def _pop_next(self) -> VfRequest | None:
        raise NotImplementedError

    def submit(self, request: VfRequest) -> Event:
        raise NotImplementedError

    # -- engine machinery --

    def _notify(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _next_request(self, _wakeup: Event | None = None) -> None:
        request = self._pop_next()
        if request is None:
            if self._wakeup is None or self._wakeup.fired:
                self._wakeup = self.sim.event()
            self._wakeup.add_callback(self._next_request)
            return
        self.sim.call_later(request.service_ns,
                            partial(self._served, request))

    def _served(self, request: VfRequest) -> None:
        request.done.succeed()
        self._next_request()


class FcfsArbiter(_ArbiterBase):
    """Shared FIFO with a device-wide in-flight ceiling (QAT)."""

    def __init__(self, sim: Simulator, engine_slots: int,
                 queue_ceiling: int) -> None:
        self._queue: deque[VfRequest] = deque()
        self._ceiling = queue_ceiling
        self._blocked: deque[VfRequest] = deque()
        super().__init__(sim, engine_slots)

    def submit(self, request: VfRequest) -> Event:
        request.done = self.sim.event()
        if len(self._queue) >= self._ceiling:
            # Hardware queue full: the submission itself blocks until a
            # slot frees (the "concurrency ceiling" of Finding 6).
            self._blocked.append(request)
            return request.done
        self._queue.append(request)
        self._notify()
        return request.done

    def _pop_next(self) -> VfRequest | None:
        if not self._queue:
            return None
        request = self._queue.popleft()
        while self._blocked and len(self._queue) < self._ceiling:
            self._queue.append(self._blocked.popleft())
        return request


class FairArbiter(_ArbiterBase):
    """Per-VF queues served round-robin (DP-CSD front-end QoS)."""

    def __init__(self, sim: Simulator, engine_slots: int,
                 vf_count: int) -> None:
        self._queues: list[deque[VfRequest]] = [deque()
                                                for _ in range(vf_count)]
        self._cursor = 0
        super().__init__(sim, engine_slots)

    def submit(self, request: VfRequest) -> Event:
        request.done = self.sim.event()
        self._queues[request.vf_index].append(request)
        self._notify()
        return request.done

    def _pop_next(self) -> VfRequest | None:
        vf_count = len(self._queues)
        for step in range(vf_count):
            index = (self._cursor + step) % vf_count
            if self._queues[index]:
                self._cursor = (index + 1) % vf_count
                return self._queues[index].popleft()
        return None
