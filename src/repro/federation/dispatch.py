"""Authenticated sweep dispatch over :mod:`multiprocessing.connection`.

Workers (``repro-experiment worker``, or the forked localhost processes
of :func:`spawn_local_workers`) run fully-resolved
:class:`~repro.sweep.spec.SweepPoint` documents one at a time and ship
back ``(index, RunResult, error)`` triples.  Every point's RNGs derive
from the spec, so the driver writes results through ``point.index``
and the rows are byte-identical to the inline runner whatever the
worker count, join order or mid-run worker death.

A keyed :class:`~multiprocessing.connection.Listener` runs an HMAC
challenge-response before any message is unpickled, so a peer without
the key never gets its bytes decoded.  Local workers get a fresh random
key per run; remote workers share ``REPRO_WORKER_KEY`` with the driver.
Messages are pickled tuples tagged by their first element::

    ("hello", PROTOCOL_VERSION)        worker -> driver, on connect
    ("task", point)                    driver -> worker
    ("result", index, run, error)      worker -> driver
    ("heartbeat",)                     worker -> driver, periodic
    ("shutdown",)                      driver -> worker, session end

Workers send heartbeats while computing; a worker silent past
``heartbeat_timeout_s``, or dead, has its in-flight point requeued (at
most ``max_requeues`` times) onto the survivors.  Transport and
decoding failures raise :class:`~repro.errors.DispatchError`, never a
bare ``EOFError``.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import (
    AuthenticationError,
    Connection,
    Listener,
    answer_challenge,
    deliver_challenge,
)
from queue import SimpleQueue
from typing import Callable, Iterator, Sequence

from repro.errors import DispatchError
from repro.sweep.runner import execute_point
from repro.sweep.spec import SweepPoint

__all__ = [
    "KEY_ENV",
    "PROTOCOL_VERSION",
    "SocketWorkerPool",
    "receive",
    "serve_worker",
    "spawn_local_workers",
    "worker_key",
]

#: Bumped on any wire-format change; driver and worker must agree.
PROTOCOL_VERSION = 2

#: Environment variable holding the key remote workers and drivers share.
KEY_ENV = "REPRO_WORKER_KEY"


def worker_key() -> bytes:
    """The shared remote-worker key, read from :data:`KEY_ENV`."""
    key = os.environ.get(KEY_ENV, "")
    if not key:
        raise DispatchError(
            f"remote sweep workers authenticate with a shared key: set "
            f"{KEY_ENV} to the same secret on the worker and the driver"
        )
    return key.encode()


def receive(conn: Connection) -> tuple:
    """Read one tagged message; any failure is a :class:`DispatchError`."""
    try:
        message = conn.recv()
    except (EOFError, OSError) as error:
        raise DispatchError(
            f"connection lost ({type(error).__name__}: {error})"
        ) from error
    except Exception as error:  # unpickling raises a small zoo here
        raise DispatchError(f"malformed message: {error!r}") from error
    if not isinstance(message, tuple) or not message:
        raise DispatchError(
            f"message is not a tagged tuple: {type(message).__name__}"
        )
    return message


# -- worker side ---------------------------------------------------------------


def _serve_session(conn: Connection, heartbeat_interval_s: float) -> None:
    """Serve one authenticated driver connection until it shuts down."""
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    def heartbeats() -> None:
        while not stop.wait(heartbeat_interval_s):
            try:
                send(("heartbeat",))
            except OSError:
                return

    send(("hello", PROTOCOL_VERSION))
    pulse = threading.Thread(target=heartbeats, daemon=True)
    pulse.start()
    try:
        while True:
            try:
                message = receive(conn)
            except DispatchError:
                return  # driver vanished; session over
            if message[0] == "shutdown":
                return
            if message[0] != "task":
                raise DispatchError(
                    f"worker expected a task, got {message[0]!r}"
                )
            send(("result", *execute_point(message[1])))
    finally:
        stop.set()
        pulse.join()
        conn.close()


def _serve(listener: Listener, max_sessions: int | None,
           heartbeat_interval_s: float) -> None:
    """Serve driver sessions one at a time, then close ``listener``.

    A peer that fails the handshake is dropped without counting as a
    session; nothing it sent was unpickled.
    """
    sessions = 0
    with listener:
        while max_sessions is None or sessions < max_sessions:
            try:
                conn = listener.accept()
            except (AuthenticationError, EOFError, OSError):
                continue
            sessions += 1
            _serve_session(conn, heartbeat_interval_s)


def serve_worker(host: str = "127.0.0.1", port: int = 0, *,
                 authkey: bytes,
                 max_sessions: int | None = None,
                 heartbeat_interval_s: float = 1.0,
                 ready: Callable[[int], None] | None = None) -> int:
    """Serve driver sessions holding ``authkey``, one at a time.

    ``port=0`` binds an ephemeral port; ``ready`` (if given) receives
    the bound port once the listener is up.  ``max_sessions=None``
    serves forever.  Returns the bound port.
    """
    if not authkey:  # Listener treats a missing key as "no handshake"
        raise DispatchError("a sweep worker needs a non-empty authkey")
    listener = Listener((host, port), authkey=authkey)
    bound = listener.address[1]
    if ready is not None:
        ready(bound)
    _serve(listener, max_sessions, heartbeat_interval_s)
    return bound


@contextmanager
def spawn_local_workers(count: int, *,
                        heartbeat_interval_s: float = 1.0
                        ) -> Iterator[tuple[list, bytes]]:
    """Run ``count`` localhost workers keyed with a fresh random key.

    Yields ``(hosts, authkey)`` for a :class:`SocketWorkerPool`.  Each
    listener is bound in the parent (so its port is known at once) and
    served by a child that takes exactly one driver session and exits;
    leaving the block joins the children.  Forks where the platform
    offers it, so workers inherit the driver's pre-warmed calibration
    cache (the runner warms before spawning).
    """
    if count < 1:
        raise DispatchError(
            f"need at least one local worker, got {count}"
        )
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context()
    authkey = os.urandom(32)
    processes, hosts = [], []
    try:
        for _ in range(count):
            with Listener(("127.0.0.1", 0), authkey=authkey) as listener:
                process = context.Process(
                    target=_serve,
                    args=(listener, 1, heartbeat_interval_s), daemon=True)
                process.start()
                processes.append(process)
                hosts.append(listener.address)
            # Leaving the block closes the parent's copy only.
        yield hosts, authkey
    finally:
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join()


# -- driver side ---------------------------------------------------------------


def _parse_address(host) -> tuple[str, int]:
    if isinstance(host, (tuple, list)) and len(host) == 2:
        return str(host[0]), int(host[1])
    if isinstance(host, str) and ":" in host:
        name, _, port = host.rpartition(":")
        try:
            return name, int(port)
        except ValueError as error:
            raise DispatchError(
                f"bad worker address {host!r}: port is not an integer"
            ) from error
    raise DispatchError(
        f"bad worker address {host!r}; expected 'host:port' or "
        f"(host, port)"
    )


class SocketWorkerPool:
    """Drives sweep points over keyed workers, surviving worker death.

    One driver thread per worker feeds it points and collects results;
    any worker failure (connection refused/reset, failed handshake,
    lost or undecodable message, heartbeat silence past
    ``heartbeat_timeout_s``) marks that worker dead and requeues its
    in-flight point — at most ``max_requeues`` times per point, after
    which the point is reported failed.  When every worker is dead with
    points still unserved, the remaining points fail out loudly instead
    of hanging the driver.
    """

    def __init__(self, hosts: Sequence, *, authkey: bytes,
                 heartbeat_timeout_s: float = 10.0,
                 connect_timeout_s: float = 10.0,
                 max_requeues: int = 1) -> None:
        if not hosts:
            raise DispatchError("worker pool needs at least one host")
        if max_requeues < 0:
            raise DispatchError(
                f"max_requeues must be >= 0, got {max_requeues}"
            )
        self.addresses = [_parse_address(host) for host in hosts]
        self.authkey = authkey
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.max_requeues = max_requeues
        #: Total points requeued off dead workers (for tests/reports).
        self.requeues = 0
        #: ``host:port`` labels of workers that died mid-run.
        self.dead_workers: list[str] = []
        #: Guards the task deque AND signals idle drivers when a dead
        #: worker's point is requeued or the last result lands — an
        #: idle driver must not retire while another worker still holds
        #: an in-flight point, or that point's requeue finds nobody.
        self._cond = threading.Condition()
        self._attempts: dict[int, int] = {}
        self._outstanding = 0
        self._live = 0

    def imap(self, points: Sequence[SweepPoint]
             ) -> Iterator[tuple[int, object, str | None]]:
        """Yield ``(index, run, error)`` as workers finish points.

        Exactly ``len(points)`` triples are yielded; completion order
        is arbitrary (the caller writes through ``index``).  Closing
        the iterator early drops the unsent points: each worker is
        shut down after its current point and the close returns once
        every driver thread has.
        """
        tasks: deque[SweepPoint] = deque(points)
        results: SimpleQueue = SimpleQueue()
        self._attempts = {point.index: 0 for point in points}
        self._outstanding = len(points)
        self._live = len(self.addresses)
        threads = [
            threading.Thread(
                target=self._drive_worker,
                args=(address, tasks, results), daemon=True)
            for address in self.addresses
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(len(points)):
                yield results.get()
        finally:
            with self._cond:
                tasks.clear()
                self._outstanding = 0
                self._cond.notify_all()
            for thread in threads:
                thread.join()

    # -- per-worker driver thread ----------------------------------------------

    def _receive(self, conn: Connection, name: str) -> tuple:
        if not conn.poll(self.heartbeat_timeout_s):
            raise DispatchError(
                f"worker {name} silent for {self.heartbeat_timeout_s} s"
            )
        return receive(conn)

    def _drive_worker(self, address: tuple[str, int],
                      tasks: deque, results: SimpleQueue) -> None:
        name = f"{address[0]}:{address[1]}"
        conn = None
        current: SweepPoint | None = None
        try:
            sock = socket.create_connection(
                address, timeout=self.connect_timeout_s)
            sock.setblocking(True)  # Connection reads the raw descriptor
            conn = Connection(sock.detach())
            # Client()'s handshake, but a peer that accepts and never
            # sends its challenge cannot hang this thread.
            if not conn.poll(self.connect_timeout_s):
                raise DispatchError(f"no handshake from worker {name}")
            answer_challenge(conn, self.authkey)
            deliver_challenge(conn, self.authkey)
            hello = self._receive(conn, name)
            if hello[0] != "hello":
                raise DispatchError(
                    f"worker {name} greeted with {hello[0]!r}, "
                    f"expected 'hello'"
                )
            if hello[1] != PROTOCOL_VERSION:
                raise DispatchError(
                    f"worker {name} speaks protocol {hello[1]}, "
                    f"driver speaks {PROTOCOL_VERSION}"
                )
            while True:
                with self._cond:
                    # Idle but other workers hold in-flight points:
                    # stay alive to pick up a requeue if one dies.
                    while not tasks and self._outstanding > 0:
                        self._cond.wait(0.1)
                    if not tasks:
                        break
                    current = tasks.popleft()
                    self._attempts[current.index] += 1
                conn.send(("task", current))
                while True:
                    message = self._receive(conn, name)
                    if message[0] == "heartbeat":
                        continue
                    if message[0] == "result":
                        break
                    raise DispatchError(
                        f"unexpected message {message[0]!r} from "
                        f"worker {name}"
                    )
                _, index, run, error = message
                current = None
                self._deliver(results, (index, run, error))
            conn.send(("shutdown",))
        except Exception as error:  # noqa: BLE001 - a lost result
            # must never strand the collector, whatever died.
            self._worker_died(name, current, error, tasks, results)
        finally:
            if conn is not None:
                conn.close()
            self._retire_thread(tasks, results)

    def _deliver(self, results: SimpleQueue, triple: tuple) -> None:
        """Hand one result to the collector and wake idle drivers."""
        results.put(triple)
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    def _worker_died(self, name: str, current: SweepPoint | None,
                     error: Exception, tasks: deque,
                     results: SimpleQueue) -> None:
        failure = None
        with self._cond:
            self.dead_workers.append(name)
            if current is not None:
                attempts = self._attempts[current.index]
                if attempts > self.max_requeues:
                    failure = (
                        current.index, None,
                        f"DispatchError: point {current.index} failed "
                        f"on worker {name} after {attempts} attempts "
                        f"({type(error).__name__}: {error})")
                    self._outstanding -= 1
                else:
                    self.requeues += 1
                    tasks.append(current)
            self._cond.notify_all()
        if failure is not None:
            results.put(failure)

    def _retire_thread(self, tasks: deque,
                       results: SimpleQueue) -> None:
        """Last thread out fails any unserved points instead of
        letting the collector block forever."""
        with self._cond:
            self._live -= 1
            stranded = ()
            if self._live == 0 and tasks:
                stranded = tuple(tasks)
                tasks.clear()
                self._outstanding -= len(stranded)
            self._cond.notify_all()
        for point in stranded:
            results.put((
                point.index, None,
                f"DispatchError: every worker died with point "
                f"{point.index} (and {len(stranded) - 1} more) "
                f"unserved"))
