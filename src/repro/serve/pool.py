"""Supervised pre-forked worker pool for the parse daemon.

A daemon that parses in its own process dies with a segfault-class
failure and cannot cut a runaway parse without interrupting whatever
it was doing.  This module moves each parse into a supervised child
process:

* **Pre-forked workers.**  Workers are forked from the warm parent
  *after* the LALR tables and warm :class:`~repro.api.Session` exist,
  so every child starts hot (copy-on-write tables, no rebuild).
  Request/response framing is length-prefixed JSON over a pipe pair.
* **Supervisor-enforced deadlines.**  The parent waits on the response
  pipe with ``select`` and a timeout derived from the request's
  :class:`~repro.serve.admission.Deadline`; on expiry the worker is
  SIGKILLed and the request answered ``status=timeout``.  This is the
  only way a deadline cuts a parse, in the daemon and the batch
  engine alike.  It works on any thread, so any number of dispatcher
  threads can serve parses concurrently; work that swallows
  exceptions cannot escape it; and the parent's own work (an
  invalidation, a cache write) is never interrupted.
* **Supervision.**  A heartbeat thread pings idle workers, recycles
  them after ``max_requests`` served or past an RSS ceiling, and
  replaces the dead.  A crashed worker is restarted under
  deterministic-seeded exponential backoff; a request in flight on a
  crashed worker is retried once on a fresh worker before being
  answered ``status=crashed``.
* **One attempt, two retry policies.**  :meth:`WorkerPool.run_once`
  dispatches once and never parses in the parent; the daemon's
  :meth:`WorkerPool.execute` and the batch engine
  (``repro.engine.scheduler``) each wrap it in their own policy.
* **Crash-loop circuit breaker.**  Worker deaths feed the engine's
  :class:`~repro.engine.scheduler.CrashLoopBreaker` (PR 3): enough
  consecutive deaths trip it and the pool degrades to supervised
  single-inline-worker mode — parses run serialized on the parent's
  warm session — instead of fork-looping or dying.  After a cooldown
  the breaker half-opens and the pool re-probes forking.

Observability: the pool counts ``pool.{spawns,crashes,restarts,
recycles,timeouts,inline_parses}`` and ``pool.breaker.trips`` into its
owner's :class:`repro.obs.Counters` (the daemon's or the batch run's),
and :meth:`WorkerPool.population` gives the ``stats`` op its
``alive``/``idle`` gauges.

Chaos: the supervisor fires the ``pool.request`` hook on every
dispatched wire request; an armed ``worker-crash``/``worker-hang``
fault tags the request and the child acts it out (``os._exit`` /
oversleep), exercising exactly the crash and deadline paths above.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import select
import signal
import struct
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import chaos
from repro.engine.results import (STATUS_CRASHED, STATUS_ERROR,
                                  STATUS_TIMEOUT, error_record)
from repro.engine.scheduler import CrashLoopBreaker, backoff_delay
from repro.obs.counters import Counters
from repro.serve import protocol
from repro.serve.admission import Deadline

_HEADER = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024

# Exit code a worker uses for a chaos-injected crash (distinguishable
# from real faults in waitpid status, same supervision path).
CHAOS_EXIT = 66

# Forks one restart tries before it leaves the replacement to the next
# heartbeat (a failed fork is usually transient: EAGAIN, ENOMEM).
SPAWN_ATTEMPTS = 3


# -- pipe framing ------------------------------------------------------


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(fd: int, message: dict) -> None:
    payload = json.dumps(message).encode("utf-8")
    _write_all(fd, _HEADER.pack(len(payload)) + payload)


def _recv_frame(fd: int) -> Optional[dict]:
    """One framed message, or None on EOF / garbage (dead peer)."""
    header = _read_exact(fd, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        return None
    payload = _read_exact(fd, length)
    if payload is None:
        return None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return message if isinstance(message, dict) else None


def _rss_kb() -> int:
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


# -- configuration -----------------------------------------------------


class PoolConfig:
    """Tunables for the worker pool and its supervisor."""

    def __init__(self,
                 size: int = 2,
                 max_requests: int = 200,
                 max_rss_mb: int = 0,
                 heartbeat_seconds: float = 1.0,
                 heartbeat_timeout: float = 2.0,
                 checkout_timeout: float = 2.0,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max: float = 2.0,
                 backoff_jitter: float = 0.5,
                 backoff_seed: int = 0,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0):
        self.size = max(1, size)
        # Recycle after this many served requests (0 disables).
        self.max_requests = max(0, max_requests)
        # Recycle when a worker's max-RSS passes this (0 disables).
        self.max_rss_mb = max(0, max_rss_mb)
        self.heartbeat_seconds = max(0.05, heartbeat_seconds)
        self.heartbeat_timeout = max(0.05, heartbeat_timeout)
        # How long a dispatcher waits for an idle worker before
        # falling back to an inline parse.
        self.checkout_timeout = max(0.05, checkout_timeout)
        self.backoff_base = max(0.0, backoff_base)
        self.backoff_factor = max(1.0, backoff_factor)
        self.backoff_max = max(0.0, backoff_max)
        self.backoff_jitter = max(0.0, backoff_jitter)
        self.backoff_seed = backoff_seed
        self.breaker_threshold = max(0, breaker_threshold)
        self.breaker_cooldown = max(0.0, breaker_cooldown)


class Worker:
    """Parent-side handle on one forked worker process."""

    __slots__ = ("pid", "rfd", "wfd", "served", "rss_kb", "alive")

    def __init__(self, pid: int, rfd: int, wfd: int):
        self.pid = pid
        self.rfd = rfd    # parent reads responses here
        self.wfd = wfd    # parent writes requests here
        self.served = 0
        self.rss_kb = 0
        self.alive = True


# -- the worker child --------------------------------------------------


def _child_close_fds(keep: Tuple[int, ...]) -> None:
    """Close every inherited descriptor except ``keep`` and stdio —
    most importantly the listener and client sockets, so a wedged
    worker can't hold connections open past the parent."""
    keep_set = set(keep) | {0, 1, 2}
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        fds = range(3, 256)
    for fd in fds:
        if fd in keep_set:
            continue
        try:
            os.close(fd)
        except OSError:
            pass


def _child_main(state: Any, rfd: int, wfd: int) -> None:
    """The worker loop: framed requests in, framed records out.

    Runs with the parent's warm state inherited copy-on-write, which
    provides ``reset_after_fork()`` (fresh locks, no cache/journal
    writers: publishing is the parent's job), ``files.put`` for
    overlays and ``_parse_inline(unit, text)`` for the record.  The
    record goes back with two frame fields the parent pops:
    ``rss_kb``, and the parse's read-set under ``reads``."""
    _child_close_fds((rfd, wfd))
    # Keep this worker's collections off (and so from copying) every
    # page of the inherited warm state.
    gc.freeze()
    state.reset_after_fork()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        frame = _recv_frame(rfd)
        if frame is None:
            return
        request = protocol.decode_worker(frame)
        if request is None or isinstance(request, protocol.WorkerExit):
            return
        if isinstance(request, protocol.WorkerPing):
            _send_frame(wfd, protocol.pong(_rss_kb()))
            continue
        if request.chaos == "crash":
            os._exit(CHAOS_EXIT)
        if request.chaos == "hang":
            time.sleep(request.chaos_seconds)
        unit = request.unit
        for path, overlay in request.files.items():
            state.files.put(path, overlay)
        try:
            record = state._parse_inline(unit, request.text)
        except Exception as exc:  # confinement: report, don't die
            record = error_record(unit, STATUS_ERROR, repr(exc))
        record["rss_kb"] = _rss_kb()
        try:
            _send_frame(wfd, record)
        except (OSError, TypeError, ValueError):
            return


# -- the pool ----------------------------------------------------------


class WorkerPool:
    """Pre-forked parse workers under one supervisor.

    :meth:`run_once` (one attempt) and ``execute(unit, text, files,
    deadline)`` are thread-safe.  ``execute`` always
    returns a record: a parse result, a ``timeout`` record (worker
    killed at the deadline), a ``crashed`` record (died twice on the
    same request), or an inline-parse result when the pool is degraded
    or exhausted.
    """

    def __init__(self, state: Any, config: Optional[PoolConfig] = None,
                 counters: Optional[Counters] = None):
        self.state = state
        self.config = config if config is not None else PoolConfig()
        self.counters = counters if counters is not None else Counters()
        self.counters.declare(
            "pool.spawns", "pool.crashes", "pool.restarts",
            "pool.recycles", "pool.timeouts", "pool.inline_parses",
            "pool.breaker.trips")
        self.breaker = CrashLoopBreaker(self.config.breaker_threshold)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._idle: Deque[Worker] = collections.deque()
        self._workers: List[Worker] = []
        self._inline_lock = threading.Lock()
        self._closed = False
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._tripped_at = 0.0
        self._restart_streak = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        for _ in range(self.config.size):
            worker = self._spawn()
            if worker is None:
                break
            with self._cond:
                self._workers.append(worker)
                self._idle.append(worker)
                self._cond.notify()
        self._supervisor = threading.Thread(target=self._supervise,
                                            name="serve-pool-supervisor",
                                            daemon=True)
        self._supervisor.start()
        return self

    def close(self) -> None:
        self._stop.set()
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._workers = []
            self._idle.clear()
            self._cond.notify_all()
        for worker in workers:
            self._shutdown_worker(worker)
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)

    def _shutdown_worker(self, worker: Worker) -> None:
        try:
            _send_frame(worker.wfd, protocol.WorkerExit().to_wire())
        except OSError:
            pass
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            pid, _status = os.waitpid(worker.pid, os.WNOHANG)
            if pid == worker.pid:
                break
            time.sleep(0.01)
        else:
            try:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
            except OSError:
                pass
        self._close_worker_fds(worker)

    @staticmethod
    def _close_worker_fds(worker: Worker) -> None:
        worker.alive = False
        for fd in (worker.rfd, worker.wfd):
            try:
                os.close(fd)
            except OSError:
                pass

    # -- spawning / supervision ----------------------------------------

    def _spawn(self) -> Optional[Worker]:
        """Fork one warm worker; None if the fork itself fails."""
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (req_r, req_w, res_r, res_w):
                os.close(fd)
            return None
        if pid == 0:
            try:
                os.close(req_w)
                os.close(res_r)
                _child_main(self.state, req_r, res_w)
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(res_w)
        self.counters.inc("pool.spawns")
        return Worker(pid, rfd=res_r, wfd=req_w)

    def _reap(self, worker: Worker) -> None:
        """Retire a worker for good: kill it if it still runs and
        collect its exit status, so no zombie is left behind."""
        self._close_worker_fds(worker)
        try:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
        except OSError:
            pass
        with self._cond:
            if worker in self._workers:
                self._workers.remove(worker)
            try:
                self._idle.remove(worker)
            except ValueError:
                pass

    def _restart_one(self) -> Optional[Worker]:
        """Backoff + fork one replacement and make it available.

        A failed fork (EAGAIN or ENOMEM under load) is retried after
        the next backoff step, up to ``SPAWN_ATTEMPTS`` forks in all.
        Otherwise a request whose worker crashed would be answered
        while the pool is one worker short and ``pool.restarts`` is
        unchanged, until a later heartbeat makes up the population."""
        worker = None
        for _ in range(SPAWN_ATTEMPTS):
            self._restart_streak += 1
            delay = backoff_delay(self.config, self._restart_streak)
            if delay > 0:
                time.sleep(delay)
            worker = self._spawn()
            if worker is not None:
                break
        if worker is None:
            return None
        self.counters.inc("pool.restarts")
        with self._cond:
            if self._closed:
                pass
            else:
                self._workers.append(worker)
                self._idle.append(worker)
                self._cond.notify()
                return worker
        self._shutdown_worker(worker)
        return None

    def _on_worker_death(self, worker: Worker) -> None:
        """Bookkeeping for a worker that died serving a request."""
        self.counters.inc("pool.crashes")
        self._reap(worker)
        if self.breaker.failure():
            # This death tripped the breaker: degrade to inline mode
            # instead of fork-looping.
            self._tripped_at = time.monotonic()
            self.counters.inc("pool.breaker.trips")
        if not self.breaker.tripped and not self._closed:
            self._restart_one()

    def _supervise(self) -> None:
        """Heartbeat loop: ping the idle, recycle the worn, replace
        the missing, and half-open a cooled-down breaker."""
        while not self._stop.wait(self.config.heartbeat_seconds):
            if self.breaker.tripped:
                if self.config.breaker_cooldown > 0 and \
                        time.monotonic() - self._tripped_at \
                        >= self.config.breaker_cooldown:
                    # Half-open: forget the streak and re-probe forking.
                    self.breaker.reset()
                else:
                    continue
            with self._cond:
                idle = [self._idle.popleft()
                        for _ in range(len(self._idle))]
            for worker in idle:
                if self._stop.is_set():
                    with self._cond:
                        self._idle.append(worker)
                        self._cond.notify()
                    continue
                if not self._healthy(worker):
                    self._on_worker_death(worker)
                elif self._worn(worker):
                    self.counters.inc("pool.recycles")
                    self._reap(worker)
                    self._restart_streak = 0
                    self._restart_one()
                else:
                    with self._cond:
                        self._idle.append(worker)
                        self._cond.notify()
            # Keep the population at size even if a spawn failed.
            with self._cond:
                missing = (0 if self._closed else
                           self.config.size - len(self._workers))
            for _ in range(max(0, missing)):
                if self._stop.is_set() or self.breaker.tripped:
                    break
                self._restart_one()

    def _healthy(self, worker: Worker) -> bool:
        """Ping an idle worker; False means dead/wedged."""
        try:
            _send_frame(worker.wfd, protocol.WorkerPing().to_wire())
        except OSError:
            return False
        ready, _, _ = select.select([worker.rfd], [], [],
                                    self.config.heartbeat_timeout)
        if not ready:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except OSError:
                pass
            return False
        pong = _recv_frame(worker.rfd)
        if pong is None or not pong.get("ok"):
            return False
        worker.rss_kb = int(pong.get("rss_kb") or 0)
        return True

    def _worn(self, worker: Worker) -> bool:
        config = self.config
        if config.max_requests and worker.served >= config.max_requests:
            return True
        if config.max_rss_mb and worker.rss_kb >= config.max_rss_mb * 1024:
            return True
        return False

    # -- request path --------------------------------------------------

    def _checkout(self, deadline: Optional[Deadline]) -> Optional[Worker]:
        budget = self.config.checkout_timeout
        if deadline is not None and deadline.enabled:
            budget = min(budget, max(0.0, deadline.remaining()))
        end = time.monotonic() + budget
        with self._cond:
            while True:
                if self._closed or self.breaker.tripped:
                    return None
                if self._idle:
                    return self._idle.popleft()
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(timeout=remaining)

    def _checkin(self, worker: Worker) -> None:
        worker.served += 1
        with self._cond:
            if self._closed or worker not in self._workers:
                pass
            else:
                self._idle.append(worker)
                self._cond.notify()
                return
        self._shutdown_worker(worker)

    def run_once(self, unit: str, text: str,
                 files: Dict[str, Optional[str]],
                 deadline: Optional[Deadline] = None) \
            -> Tuple[str, dict]:
        """One request on one worker; never parses in this process.
        ``files`` overlays the worker's file view first (path -> text;
        None: missing).

        Returns ``(outcome, record)``: ``ok``, ``timeout`` (worker
        killed at the deadline), ``crash`` (worker died, replaced) or
        ``unavailable`` (pool closed, breaker tripped, or no idle
        worker in time).  Retrying is the caller's policy."""
        worker = None
        if not self.breaker.tripped and not self._closed:
            wire = protocol.WorkerParse(unit, text, files).to_wire()
            if chaos.ACTIVE is not None:
                # Fired per dispatch (not per request), so an armed
                # fault hits one attempt and a retry runs clean.
                chaos.fire("pool.request", request=wire)
            worker = self._checkout(deadline)
        if worker is None:
            return "unavailable", error_record(
                unit, STATUS_ERROR, "no pool worker available")
        outcome, record = self._dispatch(worker, wire, unit, deadline)
        if outcome == "ok":
            self.breaker.success()
            self._restart_streak = 0
            self._checkin(worker)
            return outcome, record
        if outcome == "timeout":
            self.counters.inc("pool.timeouts")
        else:
            record = error_record(unit, STATUS_ERROR,
                                  f"worker pid {worker.pid} died "
                                  f"serving {unit}")
        self._on_worker_death(worker)
        return outcome, record

    def execute(self, unit: str, text: str,
                files: Dict[str, Optional[str]],
                deadline: Optional[Deadline] = None) -> dict:
        """Run one parse out of process; always returns a record.

        Over :meth:`run_once`: a crash is retried once, a timeout is
        final (its budget is spent), a degraded pool parses inline."""
        last_crash = "worker died"
        for attempt in (1, 2):
            outcome, record = self.run_once(unit, text, files, deadline)
            if outcome in ("ok", "timeout"):
                return record
            if outcome == "unavailable":
                break
            last_crash = f"{record['error']} (attempt {attempt})"
        if self.breaker.tripped or self._closed \
                or not self._has_workers():
            return self._run_inline(unit, text)
        return error_record(unit, STATUS_CRASHED, last_crash, attempt=2)

    def _has_workers(self) -> bool:
        with self._cond:
            return bool(self._workers)

    def _dispatch(self, worker: Worker, wire: dict, unit: str,
                  deadline: Optional[Deadline]) \
            -> Tuple[str, Optional[dict]]:
        """(outcome, record): outcome is ok / timeout / crash."""
        try:
            _send_frame(worker.wfd, wire)
        except OSError:
            return "crash", None
        timeout = None
        if deadline is not None and deadline.enabled:
            timeout = max(0.0, deadline.remaining())
        ready, _, _ = select.select([worker.rfd], [], [], timeout)
        if not ready:
            # Deadline expired mid-parse: the supervisor enforces it by
            # killing the worker, from whichever thread dispatched.
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except OSError:
                pass
            seconds = deadline.seconds if deadline is not None else 0.0
            return "timeout", error_record(
                unit, STATUS_TIMEOUT,
                f"deadline of {seconds:.3g}s exceeded in worker "
                f"pid {worker.pid} (killed by supervisor)")
        record = _recv_frame(worker.rfd)
        if record is None:
            return "crash", None
        worker.rss_kb = int(record.pop("rss_kb", 0) or 0)
        return "ok", record

    def _run_inline(self, unit: str, text: str) -> dict:
        """Degraded mode: one parse at a time on the parent's warm
        session (the PR 6 behavior, kept as the floor the pool can
        never fall below)."""
        self.counters.inc("pool.inline_parses")
        with self._inline_lock:
            try:
                return self.state._parse_inline(unit, text)
            except Exception as exc:
                return error_record(unit, STATUS_ERROR, repr(exc))

    # -- introspection -------------------------------------------------

    def population(self) -> Tuple[int, int]:
        """(alive, idle) workers right now."""
        with self._cond:
            return len(self._workers), len(self._idle)
