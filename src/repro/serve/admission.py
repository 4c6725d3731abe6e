"""Admission control: bounded queueing, deadlines, load shedding.

A long-lived parse daemon must degrade predictably under overload: an
unbounded request queue turns a traffic burst into unbounded memory
growth and ever-worsening tail latency for *every* client.  This
module bounds the damage:

* :class:`AdmissionQueue` — a FIFO with a hard depth limit.  A submit
  beyond ``max_depth`` is rejected immediately (the server answers
  ``status=shed``) instead of queueing; clients get a fast, honest
  "busy" and can back off or retry elsewhere.
* :class:`Deadline` — per-request wall-clock budget, started at
  admission time so queue wait counts against it.  A request whose
  budget ran out in the queue is answered ``timeout`` unserved; one
  that starts is cut only by the worker pool's supervisor, which
  SIGKILLs the worker parsing it (:mod:`repro.serve.pool`).  Work in
  the daemon's own process is never interrupted, so an invalidation
  or a cache write cannot be left half done.
* **Drain** — ``begin_drain()`` flips the queue into shutdown mode:
  new work is refused but everything already admitted is still handed
  out, so a ``shutdown`` request can be enqueued *behind* in-flight
  work and answered only once the queue is empty (graceful drain).

Every decision is observable: the daemon's counters registry counts
admissions (``submitted``) and rejections (``shed``), and with a
tracer the queue depth at each admission lands in the
``serve.queue_depth`` histogram.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Optional

from repro.obs.counters import Counters
from repro.obs.tracer import NULL_TRACER


class Deadline:
    """Wall-clock budget for one request, started at admission."""

    __slots__ = ("seconds", "start")

    def __init__(self, seconds: float, start: Optional[float] = None):
        self.seconds = max(0.0, seconds or 0.0)
        self.start = start if start is not None else time.monotonic()

    @property
    def enabled(self) -> bool:
        return self.seconds > 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        """Seconds left; ``inf`` when no deadline was set."""
        if not self.enabled:
            return float("inf")
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.enabled and self.remaining() <= 0

    def __repr__(self) -> str:
        return (f"Deadline({self.seconds:.3g}s, "
                f"remaining={self.remaining():.3g}s)")


class QueueClosed(Exception):
    """The queue has fully drained after ``begin_drain``."""


class AdmissionQueue:
    """Bounded FIFO with load shedding and graceful drain.

    ``max_depth`` counts *waiting* items only (the item the worker is
    currently serving has already left the queue).  ``priority=True``
    submissions (shutdown sentinels) bypass the depth check so control
    traffic is never shed by the very overload it is meant to resolve.
    """

    def __init__(self, max_depth: int = 64, tracer: Any = None,
                 counters: Optional[Counters] = None):
        self.max_depth = max(0, max_depth)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counters = counters if counters is not None else Counters()
        self.counters.declare("submitted", "shed")
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def submit(self, item: Any, priority: bool = False) -> bool:
        """Admit ``item``; False when it was shed (queue full or
        draining)."""
        with self._not_empty:
            if not priority and (self._draining
                                 or len(self._items) >= self.max_depth):
                self.counters.inc("shed")
                return False
            self._items.append(item)
            self.counters.inc("submitted")
            if self.tracer.enabled:
                self.tracer.record("serve.queue_depth",
                                   len(self._items))
            self._not_empty.notify()
            return True

    def pop(self, timeout: Optional[float] = None) -> Any:
        """Next item in FIFO order; blocks up to ``timeout``.

        Returns None on timeout; raises :class:`QueueClosed` once the
        queue is draining *and* empty (the worker's signal to exit).
        """
        with self._not_empty:
            while not self._items:
                if self._draining:
                    raise QueueClosed()
                if not self._not_empty.wait(timeout):
                    if not self._items:
                        return None
            return self._items.popleft()

    def begin_drain(self) -> None:
        """Refuse new non-priority work; wake blocked poppers so they
        can finish the backlog and observe :class:`QueueClosed`."""
        with self._not_empty:
            self._draining = True
            self._not_empty.notify_all()

    def close_with(self, item: Any) -> None:
        """Atomically flip to draining *and* enqueue a final sentinel
        ``item`` behind the backlog.  One lock acquisition, so a worker
        can never observe draining-and-empty (and exit) between the
        flip and the sentinel landing."""
        with self._not_empty:
            self._draining = True
            self._items.append(item)
            self.counters.inc("submitted")
            self._not_empty.notify_all()
