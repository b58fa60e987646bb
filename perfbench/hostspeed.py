"""Host time scaled to a fixed reference host.

The benchmark shares a few cores with other tenants, and the same
pure-Python code runs two to three times slower at some minutes than
at others.  :class:`HostClock` brackets every timed span with a
reference loop of the benchmark's own and scales the span to the speed
of a reference host, so that the end-to-end host times of runs made in
different host states can be compared.  The loop is part of the benchmark, not the
program: a change to the program moves the scaled times as it moves
the raw ones.

The loop has three parts, each a kind of work the simulator does:
integer arithmetic, allocating small dicts, tuples and lists, and an
event heap resuming generators.  They slow by different factors as the
host's load changes; the loop's time is the geometric mean of the
three, which on average tracked the four workloads' throughput better
than any one part or pair did.
"""

from __future__ import annotations

import gc
import heapq
import math
import time

#: Geometric mean of the three parts' seconds on the reference host,
#: about a quiet 2.0 GHz x86-64 core under CPython 3.11.
REF_SECONDS = 0.025


def _arithmetic() -> None:
    total = 0
    for i in range(300_000):
        total += i * i % 7


def _allocation() -> None:
    live = []
    for i in range(40_000):
        live.append({"a": i, "b": (i, i + 1), "c": [i]})
        if len(live) > 4096:
            del live[:2048]


class _Event:
    __slots__ = ("when", "seq", "process")

    def __init__(self, when: float, seq: int, process) -> None:
        self.when = when
        self.seq = seq
        self.process = process

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _process(delay: float):
    while True:
        yield delay


def _events() -> None:
    heap = [_Event(float(k), k, _process((k * 7 + 3) % 11 + 1.5))
            for k in range(64)]
    for event in heap:
        next(event.process)
    heapq.heapify(heap)
    for seq in range(64, 25_064):
        event = heapq.heappop(heap)
        delay = event.process.send(event.when)
        heapq.heappush(heap, _Event(event.when + delay, seq, event.process))


def reference_loop() -> float:
    """Host seconds for the reference loop: the parts' geometric mean.

    The cyclic collector is off while it runs: its passes would walk
    the program's live objects, and the loop must not depend on them.
    """
    seconds = []
    gc.disable()
    try:
        for part in (_arithmetic, _allocation, _events):
            start = time.perf_counter()
            part()
            seconds.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return math.prod(seconds) ** (1 / 3)


class HostClock:
    """Scales timed spans to the reference host.

    Each span is bracketed by runs of the reference loop and multiplied
    by the host's speed relative to the reference host, from the mean
    of the two loops around it.  The loop after one span is the loop
    before the next.
    """

    def __init__(self) -> None:
        #: The host's speed for each scaled span; 1.0 is the reference.
        self.speeds: list = []
        self.restart()

    def restart(self) -> None:
        """Run the loop before a span that does not follow the last."""
        self.last = reference_loop()

    def scale(self, wall_s: float) -> float:
        """Reference-host seconds of a span that took ``wall_s``."""
        before, self.last = self.last, reference_loop()
        speed = REF_SECONDS / ((before + self.last) / 2)
        self.speeds.append(speed)
        return wall_s * speed
