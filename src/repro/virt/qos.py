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
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from repro.errors import SimulationError
from repro.sim.engine import Simulator


@dataclass(slots=True)
class VfRequest:
    """One tenant request passing through the device.

    ``on_done`` is called with no arguments at the instant the engine
    pass ends, as a same-instant kernel entry of its own.
    """

    vf_index: int
    nbytes: int
    service_ns: float
    on_done: Callable[[], None]


class _ArbiterBase:
    """Engine-slot dispatch shared by both policies.

    Each engine slot is a chain of kernel callbacks, not a process: a
    busy slot schedules its own completion ``service_ns`` ahead, puts
    the request's ``on_done`` on the kernel when it fires and pulls
    the next request.  An idle slot parks; the first submit after that
    schedules one zero-delay wake entry, which restarts every slot
    parked by the time it fires.
    """

    def __init__(self, sim: Simulator, engine_slots: int) -> None:
        if engine_slots < 1:
            raise SimulationError("need at least one engine slot")
        self.sim = sim
        self.engine_slots = engine_slots
        self._parked = 0
        self._wake_pending = False
        # Let the runtime sanitizer audit arbiter queues at run end.
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)
        for _ in range(engine_slots):
            sim.call_later(0.0, self._next_request)

    # -- subclass interface --

    def _pop_next(self) -> VfRequest | None:
        raise NotImplementedError

    def submit(self, request: VfRequest) -> None:
        raise NotImplementedError

    # -- engine machinery --

    def _notify(self) -> None:
        if self._parked and not self._wake_pending:
            self._wake_pending = True
            self.sim.call_later(0.0, self._wake)

    def _wake(self) -> None:
        parked = self._parked
        self._parked = 0
        self._wake_pending = False
        for _ in range(parked):
            self._next_request()

    def _next_request(self) -> None:
        request = self._pop_next()
        if request is None:
            self._parked += 1
            return
        self.sim.call_later(request.service_ns,
                            partial(self._served, request))

    def _served(self, request: VfRequest) -> None:
        self.sim.call_later(0.0, request.on_done)
        self._next_request()


class FcfsArbiter(_ArbiterBase):
    """Shared FIFO with a device-wide in-flight ceiling (QAT)."""

    def __init__(self, sim: Simulator, engine_slots: int,
                 queue_ceiling: int) -> None:
        self._queue: deque[VfRequest] = deque()
        self._ceiling = queue_ceiling
        self._blocked: deque[VfRequest] = deque()
        super().__init__(sim, engine_slots)

    def submit(self, request: VfRequest) -> None:
        if len(self._queue) >= self._ceiling:
            # Hardware queue full: the submission itself blocks until a
            # slot frees (the "concurrency ceiling" of Finding 6).
            self._blocked.append(request)
            return
        self._queue.append(request)
        self._notify()

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

    def submit(self, request: VfRequest) -> None:
        self._queues[request.vf_index].append(request)
        self._notify()

    def _pop_next(self) -> VfRequest | None:
        vf_count = len(self._queues)
        for step in range(vf_count):
            index = (self._cursor + step) % vf_count
            if self._queues[index]:
                self._cursor = (index + 1) % vf_count
                return self._queues[index].popleft()
        return None
