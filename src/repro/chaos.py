"""Deterministic fault injection for the parse pipeline and daemon.

Fault-tolerance claims are only as good as the faults they were tested
against.  This module lets tests (the ``make chaos-smoke``
selection among them) inject *specific* failures at *specific*
moments — a worker crash on exactly the k-th dispatched request, a
hang that outlives the deadline, a truncated cache blob, a dropped
client socket, an ``ENOSPC`` on a cache write — and replay the exact
same schedule from a seed.

**Zero overhead when disabled.**  Production call sites guard the hook
with one module-attribute test::

    from repro import chaos
    ...
    if chaos.ACTIVE is not None:
        chaos.fire("cache.get", path=path)

``ACTIVE`` is ``None`` unless a plan is installed, so the un-injected
path costs a single global load and an ``is not None`` — no calls, no
allocation.  The module is a leaf (imports nothing from ``repro``), so
any layer can hook itself without import cycles.

**Determinism.**  A :class:`FaultPlan` is a schedule: every hook site
keeps an invocation counter, and each :class:`Fault` names the site,
the fault kind, and the 1-based invocation count ``at`` which it
fires (exactly once).  ``arm()`` schedules a fault relative to the
*current* count — the idiom for scripted harnesses — and specs
constructed with ``at=None`` draw their position from the plan's
seeded RNG.  Every injection is appended to ``plan.log``, so a
harness can assert that each planned fault actually fired.

Fault kinds and the context keys their sites must pass:

================  =====================  ==============================
kind              site context           effect
================  =====================  ==============================
``worker-crash``  ``request`` (dict)     tags the wire request so the
                                         pool worker ``os._exit``\\ s
                                         mid-request
``worker-hang``   ``request`` (dict)     tags the wire request so the
                                         worker sleeps ``seconds``
                                         (defaults to 30) past any
                                         deadline
``corrupt-blob``  ``path`` (str)         truncates the on-disk blob at
                                         ``path`` to garbage
``enospc``        —                      raises ``OSError(ENOSPC)``
                                         from inside the hook
``drop-conn``     ``sock`` (socket)      closes the socket under the
                                         sender mid-response
``torn-body``     ``box`` (dict)         tags the box so the HTTP
                                         frontend writes a truncated
                                         response body and hard-closes
                                         mid-reply
``raise``         —                      raises ``args["exc"]`` (tests)
================  =====================  ==============================
"""

from __future__ import annotations

import contextlib
import errno
import random
import socket
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence

KINDS = ("worker-crash", "worker-hang", "corrupt-blob", "enospc",
         "drop-conn", "torn-body", "raise")

# The installed plan, or None.  Call sites test this directly; only
# ever rebind through install()/uninstall() so tests compose.
ACTIVE: Optional["FaultPlan"] = None


class Fault:
    """One scheduled fault: fire ``kind`` on invocation ``at`` of
    ``site`` (1-based per-site count), then never again."""

    __slots__ = ("site", "kind", "at", "args")

    def __init__(self, site: str, kind: str, at: Optional[int] = None,
                 **args: Any):
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.site = site
        self.kind = kind
        self.at = at
        self.args = args

    def __repr__(self) -> str:
        return f"Fault({self.site!r}, {self.kind!r}, at={self.at})"


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    Thread-safe: the serve daemon fires hooks from several dispatcher
    threads at once, and counters/consumption are guarded by one lock.
    Faults with ``at=None`` are pinned at construction from the seeded
    RNG (within ``1..window``), so the same seed always yields the
    same schedule.
    """

    def __init__(self, faults: Sequence[Fault] = (), seed: int = 0,
                 window: int = 3):
        self.seed = seed
        self.rng = random.Random(seed)
        self.counts: Dict[str, int] = {}
        self.log: List[dict] = []
        self._lock = threading.Lock()
        self._pending: List[Fault] = []
        for fault in faults:
            if fault.at is None:
                fault.at = self.rng.randint(1, max(1, window))
            self._pending.append(fault)

    # -- scheduling ----------------------------------------------------

    def arm(self, site: str, kind: str, after: int = 0,
            **args: Any) -> Fault:
        """Schedule ``kind`` on the next-plus-``after`` invocation of
        ``site`` (scripted harnesses arm one fault per phase)."""
        with self._lock:
            fault = Fault(site, kind,
                          at=self.counts.get(site, 0) + 1 + after,
                          **args)
            self._pending.append(fault)
        return fault

    @property
    def pending(self) -> List[Fault]:
        with self._lock:
            return list(self._pending)

    def fired(self, kind: Optional[str] = None) -> int:
        """How many faults have fired (of one kind, or overall)."""
        with self._lock:
            return sum(1 for entry in self.log
                       if kind is None or entry["kind"] == kind)

    # -- the hook ------------------------------------------------------

    def fire(self, site: str, ctx: Dict[str, Any]) -> None:
        with self._lock:
            count = self.counts.get(site, 0) + 1
            self.counts[site] = count
            fault = None
            for candidate in self._pending:
                if candidate.site == site and candidate.at == count:
                    fault = candidate
                    break
            if fault is None:
                return
            self._pending.remove(fault)
            self.log.append({"site": site, "kind": fault.kind,
                             "at": count})
        self._apply(fault, ctx)

    # -- kind implementations ------------------------------------------

    @staticmethod
    def _apply(fault: Fault, ctx: Dict[str, Any]) -> None:
        kind = fault.kind
        if kind == "worker-crash":
            request = ctx.get("request")
            if request is not None:
                request["_chaos"] = "crash"
        elif kind == "worker-hang":
            request = ctx.get("request")
            if request is not None:
                request["_chaos"] = "hang"
                request["_chaos_seconds"] = float(
                    fault.args.get("seconds", 30.0))
        elif kind == "corrupt-blob":
            path = ctx.get("path")
            if path:
                try:
                    with open(path, "r+b") as handle:
                        handle.seek(0)
                        handle.write(b'{"chaos-truncated')
                        handle.truncate()
                except OSError:
                    pass
        elif kind == "enospc":
            raise OSError(errno.ENOSPC,
                          "No space left on device (chaos)")
        elif kind == "drop-conn":
            sock = ctx.get("sock")
            if sock is not None:
                # shutdown() before close(): another thread blocked in
                # recv() on this socket holds the kernel object alive
                # past close(), so only shutdown() delivers the FIN
                # (and wakes that reader) immediately.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
        elif kind == "torn-body":
            # Like worker-crash's request tagging: the site owns the
            # response bytes, so it acts the truncation out itself.
            box = ctx.get("box")
            if box is not None:
                box["torn"] = True
        elif kind == "raise":
            raise fault.args.get("exc") or RuntimeError("chaos")


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the active schedule (replacing any other)."""
    global ACTIVE
    ACTIVE = plan
    return plan


def uninstall() -> None:
    """Deactivate fault injection (the production state)."""
    global ACTIVE
    ACTIVE = None


def fire(site: str, **ctx: Any) -> None:
    """Hook entry point; a no-op unless a plan is installed.  Guard
    call sites with ``if chaos.ACTIVE is not None`` so the disabled
    path never even calls this."""
    plan = ACTIVE
    if plan is not None:
        plan.fire(site, ctx)


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block (tests)."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()
