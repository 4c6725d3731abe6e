"""The parse daemon: service logic and the socket front end.

**Protocol.**  Op semantics, the typed request model, the status
taxonomy, and the response envelope all live in
:mod:`repro.serve.protocol` — this module dispatches protocol objects,
it does not define the dialect.  The socket transport speaks
newline-delimited JSON over a Unix-domain socket or TCP: each request
is one JSON object on one line; each response is one JSON object on
one line carrying the request's ``id`` back.  Requests may be
pipelined — the server reads ahead and admission control decides per
request — and responses to shed requests can overtake responses to
admitted ones (match on ``id``).  The HTTP transport
(:mod:`repro.serve.http`) rides the same queue and dispatchers through
:meth:`ParseServer.submit_request`.

Request shapes (``op`` selects the type)::

    {"id": 1, "op": "parse", "path": "drivers/mousedev.c"}
    {"id": 2, "op": "parse", "text": "int x;", "filename": "<buf>"}
    {"id": 3, "op": "invalidate", "path": "include/major.h"}
    {"id": 4, "op": "invalidate", "path": "a.h", "text": "#define A"}
    {"id": 5, "op": "stats"}
    {"id": 6, "op": "shutdown"}

``parse`` extras: ``deadline`` (seconds, overrides the server
default), ``fresh`` (true skips every cache tier), ``delay`` (testing
aid: sleep before parsing, so smoke tests can pile up a burst
deterministically).

Parse responses carry the structural Result protocol as JSON —
``status``, ``diagnostics``, ``timing``, ``profile`` — in the same
record shape the batch engine emits, plus serve-side fields::

    {"id": 1, "op": "parse", "status": "ok", "cache": "hit",
     "tier": "memory", "serve": {"queue_seconds": ..., "seconds": ...},
     "timing": {...}, "diagnostics": [...], "profile": ..., ...}

Overload answers ``{"status": "shed", "error": "queue depth ..."}``
immediately; a server past ``shutdown`` answers new work with
``status=shed`` too (``"draining"``), while everything admitted before
the shutdown is still served (graceful drain).

**Architecture.**  The acceptor and per-connection readers are
daemon threads that only do admission (cheap, never parse); all
parsing happens on the single thread that called
:meth:`ParseServer.serve_forever` — the process's main thread under
the CLI, which is exactly what lets per-request deadlines use the
SIGALRM :func:`repro.serve.admission.attempt_deadline`.  Off the main
thread (e.g. tests embedding the server in a thread) deadlines degrade
to admission-time expiry checks.

Every request is observable.  Counts live in the state's one
:class:`repro.obs.Counters` registry (``ServerState.counters``), which
every component here counts into — ``requests``, ``cache_hits`` /
``cache_misses``, ``invalidated``, ``submitted`` / ``shed``,
``deadline_expired``, ``http.*``, ``pool.*``, ``journal.*``,
``result_cache.*`` — and the ``stats`` op renders as its snapshot plus
a few gauges read at call time.  A tracer adds a ``serve.request``
span per request (lane-per-request in the Chrome export, whose
``"C"`` samples are the same registry) and the ``serve.queue_depth``
histogram.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import chaos
from repro.api import Config
from repro.engine import DEFAULT_OPTIMIZATION
from repro.obs.counters import nest
from repro.obs.tracer import NULL_TRACER
from repro.serve import protocol
from repro.serve.admission import (AdmissionQueue, Deadline,
                                   DeadlineExceeded, QueueClosed,
                                   attempt_deadline)
from repro.serve.pool import PoolConfig, WorkerPool
from repro.serve.protocol import (OPS, PROTOCOL_VERSION, STATUS_SHED,
                                  InvalidateRequest, ParseRequest,
                                  PingRequest, ProtocolError, Request,
                                  ShutdownRequest, StatsRequest)
from repro.serve.state import ServerState


class ParseService:
    """Transport-independent request handler over warm server state.

    ``handle(request) -> response`` implements every op synchronously
    over one dispatch table keyed by protocol request type; the
    transports add queueing, deadlines, and shedding around it.  Raw
    wire payloads (dicts) are accepted and validated through
    :func:`repro.serve.protocol.decode_request`, so tests and
    in-process embedders can call it directly.
    """

    def __init__(self, state: ServerState, tracer: Any = None):
        self.state = state
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counters = state.counters
        self.counters.declare("requests", "cache_hits", "cache_misses",
                              "invalidated")
        self.pool: Optional[WorkerPool] = None
        self.started = time.monotonic()
        # The one dispatch table: protocol request type -> handler.
        self._handlers: Dict[type, Callable[..., dict]] = {
            ParseRequest: self._op_parse,
            InvalidateRequest: self._op_invalidate,
            StatsRequest: self._op_stats,
            PingRequest: self._op_ping,
            ShutdownRequest: self._op_shutdown,
        }

    # -- dispatch ------------------------------------------------------

    def handle(self, request: Union[dict, Request],
               deadline: Optional[Deadline] = None) -> dict:
        if not isinstance(request, Request):
            try:
                request = protocol.decode_request(request)
            except ProtocolError as exc:
                self.counters.inc("requests")
                return protocol.error_reply(exc.request_id, exc.op,
                                            str(exc))
        self.counters.inc("requests")
        handler = self._handlers[type(request)]
        try:
            if isinstance(request, ParseRequest):
                # The one op with a deadline: under a worker pool the
                # supervisor enforces it against the child process.
                return handler(request, deadline=deadline)
            return handler(request)
        except DeadlineExceeded:
            raise
        except Exception as exc:  # confine: a bad request never kills
            return protocol.error_reply(request.id, request.op,
                                        repr(exc))

    # -- ops -----------------------------------------------------------

    def _op_ping(self, request: PingRequest) -> dict:
        return protocol.reply(request.id, request.op, status="ok",
                              protocol=PROTOCOL_VERSION)

    def _op_parse(self, request: ParseRequest,
                  deadline: Optional[Deadline] = None) -> dict:
        state = self.state
        if request.delay > 0:  # testing aid — smoke tests build backlog
            time.sleep(request.delay)
        text = request.text
        if text is None:
            text = state.files.read(request.path)
            if text is None:
                return protocol.error_reply(
                    request.id, request.op,
                    f"cannot read {request.path}")
        elif request.path is not None \
                and text != state.files.read(request.path):
            # An explicit buffer for a known path is an overlay edit,
            # for every unit that reads the path too.
            state.invalidate(request.path, text)
        unit = request.unit
        with self.tracer.span("serve.request", op="parse", unit=unit):
            key = state.unit_key(unit, text)
            record: Optional[dict] = None
            tier: Optional[str] = None
            if not request.fresh:
                record, tier = state.lookup(unit, key)
            if record is not None:
                self.counters.inc("cache_hits")
                record = dict(record)
                record["cache"] = "hit"
            else:
                self.counters.inc("cache_misses")
                record = dict(state.parse(unit, text, key,
                                          deadline=deadline))
                record["cache"] = "miss"
                tier = None
        return protocol.reply(request.id, request.op, tier=tier,
                              **record)

    def _op_invalidate(self, request: InvalidateRequest) -> dict:
        with self.tracer.span("serve.request", op="invalidate",
                              path=request.path):
            dropped = self.state.invalidate(request.path, request.text)
        self.counters.inc("invalidated", len(dropped))
        return protocol.reply(request.id, request.op, status="ok",
                              invalidated=dropped, count=len(dropped))

    def _op_stats(self, request: StatsRequest) -> dict:
        """The counters registry's snapshot, nested on ``.``, plus the
        gauges read now.  A component that is off (result cache,
        journal, pool) reports ``null``."""
        state = self.state
        stats = nest(self.counters.snapshot())
        for part in ("result_cache", "journal", "pool"):
            stats.setdefault(part, None)
        stats.update(protocol=PROTOCOL_VERSION,
                     uptime_seconds=round(time.monotonic()
                                          - self.started, 3),
                     fingerprint=state.fingerprint,
                     optimization=state.optimization,
                     units_warm=state.units_warm(),
                     files_known=len(state.files.known_files()))
        if state.result_cache is not None:
            stats["result_cache"]["directory"] = \
                state.result_cache.directory
        if state.journal is not None:
            stats["journal"]["path"] = state.journal.path
        if self.pool is not None:
            alive, idle = self.pool.population()
            stats["pool"].update(alive=alive, idle=idle)
            stats["pool"]["breaker"]["tripped"] = \
                self.pool.breaker.tripped
        return protocol.reply(request.id, request.op, status="ok",
                              stats=stats)

    def _op_shutdown(self, request: ShutdownRequest) -> dict:
        # The socket server intercepts shutdown for draining; handled
        # directly (in-process use) it just acknowledges.
        return protocol.reply(request.id, request.op, status="ok",
                              draining=True)


class _Connection:
    """One client connection: buffered line reader + locked writer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._recv_buffer = b""
        self._write_lock = threading.Lock()
        self.closed = False

    def read_request(self) -> Optional[dict]:
        """Next newline-delimited JSON object, or None at EOF."""
        while b"\n" not in self._recv_buffer:
            try:
                chunk = self.sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                return None
            self._recv_buffer += chunk
        line, _sep, rest = self._recv_buffer.partition(b"\n")
        self._recv_buffer = rest
        if not line.strip():
            return self.read_request()
        return json.loads(line.decode("utf-8"))

    def send(self, response: dict) -> None:
        payload = (json.dumps(response) + "\n").encode("utf-8")
        with self._write_lock:
            if self.closed:
                return
            try:
                if chaos.ACTIVE is not None:
                    # "drop-conn" closes the socket under us here —
                    # the client sees a torn connection mid-response.
                    chaos.fire("conn.send", sock=self.sock)
                self.sock.sendall(payload)
            except OSError:
                self.closed = True

    def close(self) -> None:
        with self._write_lock:
            self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class _ResponseSlot:
    """Connection stand-in for a blocking external transport.

    An HTTP handler thread (or any in-process waiter) admits its
    request with a slot as the "connection"; the dispatcher's
    ``send()`` then hands the response straight to the waiting thread
    instead of a socket.  ``close()`` (server teardown) releases the
    waiter with a structured ``unavailable`` answer so no transport
    thread can hang on a dead dispatcher.
    """

    __slots__ = ("response", "_event")

    def __init__(self):
        self.response: Optional[dict] = None
        self._event = threading.Event()

    def send(self, response: dict) -> None:
        self.response = response
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def close(self) -> None:
        if not self._event.is_set():
            self.response = protocol.reply(
                None, None, status=protocol.STATUS_UNAVAILABLE,
                error="server stopped before answering")
            self._event.set()


class _QueuedRequest:
    """An admitted request waiting for the worker."""

    __slots__ = ("request", "connection", "deadline", "admitted",
                 "shutdown")

    def __init__(self, request: Request, connection: Any,
                 deadline: Deadline, shutdown: bool = False):
        self.request = request
        self.connection = connection
        self.deadline = deadline
        self.admitted = time.monotonic()
        self.shutdown = shutdown


class ParseServer:
    """Socket front end: accepts, admits, serves, drains.

    Bind with ``socket_path`` (Unix domain) or ``host``/``port``
    (TCP; port 0 picks a free port, see :attr:`address`); add
    ``http_host``/``http_port`` to serve the HTTP frontend
    (:mod:`repro.serve.http`) concurrently off the same warm state and
    admission queue.  Call :meth:`serve_forever` on the thread that
    should do the parsing — the main thread for SIGALRM-hard deadlines
    — or :meth:`start` to spawn everything in the background (tests,
    notebooks).
    """

    def __init__(self, state: Optional[ServerState] = None,
                 socket_path: Optional[str] = None,
                 host: Optional[str] = None,
                 port: Optional[int] = None,
                 http_host: Optional[str] = None,
                 http_port: Optional[int] = None,
                 max_queue: int = 64,
                 deadline_seconds: float = 0.0,
                 workers: int = 0,
                 pool_config: Optional[PoolConfig] = None,
                 tracer: Any = None,
                 config: Optional[Config] = None,
                 optimization: str = DEFAULT_OPTIMIZATION,
                 cache_dir: Optional[str] = None,
                 use_result_cache: bool = True,
                 **config_overrides: Any):
        if state is None:
            state = ServerState(config, optimization=optimization,
                                cache_dir=cache_dir,
                                use_result_cache=use_result_cache,
                                **config_overrides)
        self.state = state
        self.counters = state.counters
        self.counters.declare("deadline_expired")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.service = ParseService(state, tracer=self.tracer)
        self.queue = AdmissionQueue(max_queue, tracer=self.tracer,
                                    counters=self.counters)
        self.deadline_seconds = max(0.0, deadline_seconds)
        # workers > 0 enables the supervised pre-forked pool: parses
        # run in child processes, supervisor-enforced deadlines replace
        # SIGALRM, and `workers` dispatcher threads serve concurrently.
        if pool_config is None and workers > 0:
            pool_config = PoolConfig(size=workers)
        self.pool_config = pool_config if workers > 0 else None
        self.pool: Optional[WorkerPool] = None
        self._dispatcher_count = max(1, workers)
        self.socket_path = socket_path
        self._requested_host = host
        self._requested_port = port
        self.address: Optional[Tuple[str, int]] = None
        # HTTP frontend: requested when http_port is not None (0 picks
        # a free port); started alongside the socket listener.
        self._http_requested = http_port is not None
        self._http_host = http_host or "127.0.0.1"
        self._http_port = http_port or 0
        self.http: Optional[Any] = None
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._worker: Optional[threading.Thread] = None
        self._extra_dispatchers: List[threading.Thread] = []
        self._connections: List[Any] = []
        self._connections_lock = threading.Lock()
        # In-flight request count: the drain barrier that lets the
        # shutdown sentinel wait for every other dispatcher to go idle
        # before it answers and closes.
        self._active = 0
        self._active_cond = threading.Condition()
        self._stopped = threading.Event()
        self.drained = 0

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """(host, port) of the HTTP frontend, once started."""
        return None if self.http is None else self.http.address

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> None:
        """Create and bind the listening socket (idempotent).  With an
        HTTP frontend requested and no socket endpoint, the line
        protocol is simply not served."""
        if self._listener is not None:
            return
        if self.socket_path:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            listener = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        elif self._requested_port is None and self._http_requested:
            return  # HTTP-only daemon
        else:
            listener = socket.socket(socket.AF_INET,
                                     socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEADDR, 1)
            listener.bind((self._requested_host or "127.0.0.1",
                           self._requested_port or 0))
            self.address = listener.getsockname()[:2]
        listener.listen(16)
        self._listener = listener

    def _start_pool(self) -> None:
        """Fork the worker pool (before ``bind``, so workers never
        inherit the listener) and route parses through it."""
        if self.pool_config is None or self.pool is not None:
            return
        self.pool = WorkerPool(self.state, self.pool_config,
                               counters=self.counters).start()
        self.state.executor = self.pool.execute
        self.service.pool = self.pool

    def _start_http(self) -> None:
        """Bind and start the HTTP frontend, if one was requested."""
        if not self._http_requested or self.http is not None:
            return
        from repro.serve.http import HttpFrontend
        self.http = HttpFrontend(self, host=self._http_host,
                                 port=self._http_port).start()

    def _start_acceptor(self) -> None:
        if self._listener is None:
            return
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          name="serve-acceptor",
                                          daemon=True)
        self._acceptor.start()

    def start(self) -> "ParseServer":
        """Bind and run acceptor + dispatchers as background threads."""
        self._start_pool()
        self.bind()
        self._start_http()
        self._start_acceptor()
        self._worker = threading.Thread(target=self._work_loop,
                                        name="serve-worker",
                                        daemon=True)
        self._worker.start()
        return self

    def serve_forever(self) -> int:
        """Bind, accept in the background, and parse on *this* thread
        until a ``shutdown`` request drains the queue.  Returns the
        number of requests served during the drain."""
        self._start_pool()
        self.bind()
        self._start_http()
        self._start_acceptor()
        self._work_loop()
        return self.drained

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has fully stopped."""
        return self._stopped.wait(timeout)

    def close(self) -> None:
        """Hard stop: close the listener, every connection, the HTTP
        frontend, and the worker pool.  Prefer a ``shutdown`` request
        for a graceful drain."""
        self.queue.begin_drain()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self.http is not None:
            self.http.close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self.socket_path:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self.pool is not None:
            self.pool.close()
            self.state.executor = None
        self._stopped.set()

    # -- acceptor side (daemon threads; admission only) ----------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self.queue.draining:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return
            connection = _Connection(sock)
            with self._connections_lock:
                self._connections.append(connection)
            reader = threading.Thread(
                target=self._read_loop, args=(connection,),
                name="serve-reader", daemon=True)
            reader.start()

    def _read_loop(self, connection: _Connection) -> None:
        while True:
            try:
                payload = connection.read_request()
            except (ValueError, UnicodeDecodeError) as exc:
                connection.send(protocol.error_reply(
                    None, None, f"bad request line: {exc}"))
                continue
            if payload is None:
                return
            try:
                request = protocol.decode_request(payload)
            except ProtocolError as exc:
                connection.send(protocol.error_reply(
                    exc.request_id, exc.op, str(exc)))
                continue
            self._admit(request, connection)

    def _admit(self, request: Request, connection: Any) -> None:
        """Admission control over one typed request; ``connection`` is
        anything with ``send(response)`` (a socket connection or a
        transport's response slot)."""
        if isinstance(request, ShutdownRequest):
            # Atomically flip to draining and land the sentinel behind
            # everything already queued: later submits shed, earlier
            # work still drains, and the worker answers the shutdown
            # last.
            self.queue.close_with(
                _QueuedRequest(request, connection, Deadline(0.0),
                               shutdown=True))
            return
        if isinstance(request, (StatsRequest, PingRequest)):
            # Control plane: answered inline by the admitting thread,
            # so health checks and stats stay responsive under load.
            connection.send(self.service.handle(request))
            return
        deadline_seconds = self.deadline_seconds
        if isinstance(request, ParseRequest) \
                and request.deadline is not None:
            deadline_seconds = request.deadline
        deadline = Deadline(deadline_seconds)
        queued = _QueuedRequest(request, connection, deadline)
        if not self.queue.submit(queued):
            reason = ("draining" if self.queue.draining else
                      f"queue depth {self.queue.max_depth} exceeded")
            connection.send(protocol.shed_reply(request.id, request.op,
                                                reason))

    # -- external transports (HTTP, in-process embedders) --------------

    def submit_request(self, request: Union[dict, Request],
                       timeout: Optional[float] = None) -> dict:
        """Admit one externally-transported request and block for its
        response — the bridge the HTTP frontend rides, so deadline,
        shed, and queue semantics are exactly the socket path's.

        Control-plane ops answer inline; everything else waits on the
        shared dispatcher(s).  ``timeout`` bounds the wait (defaults to
        the request deadline plus a supervision margin, unbounded
        without one); an expired wait answers ``unavailable``.
        """
        if not isinstance(request, Request):
            request = protocol.decode_request(request)
        slot = _ResponseSlot()
        with self._connections_lock:
            self._connections.append(slot)
        try:
            self._admit(request, slot)
            if timeout is None and isinstance(request, ParseRequest) \
                    and request.deadline is not None \
                    and request.deadline > 0:
                timeout = request.deadline + 60.0
            if not slot.wait(timeout):
                return protocol.reply(
                    request.id, request.op,
                    status=protocol.STATUS_UNAVAILABLE,
                    error=f"no response within {timeout:.3g}s")
            return slot.response
        finally:
            with self._connections_lock:
                try:
                    self._connections.remove(slot)
                except ValueError:
                    pass

    # -- worker side (the parsing threads) -----------------------------

    def _work_loop(self) -> None:
        """Run ``_dispatcher_count`` dispatch loops: one on this
        thread, the rest on daemon threads.  With a worker pool the
        extra dispatchers give the daemon true request concurrency —
        each blocks in the supervisor's ``select``, not on a parse."""
        self._extra_dispatchers = []
        for index in range(self._dispatcher_count - 1):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"serve-dispatch-{index + 1}", daemon=True)
            thread.start()
            self._extra_dispatchers.append(thread)
        try:
            self._dispatch_loop()
        finally:
            self.close()
            for thread in self._extra_dispatchers:
                thread.join(timeout=2.0)

    def _dispatch_loop(self) -> None:
        while True:
            try:
                queued = self.queue.pop(timeout=0.5)
            except QueueClosed:
                return
            if queued is None:
                continue
            if queued.shutdown:
                # Drain barrier: everything admitted before shutdown
                # has been *popped* (FIFO), but siblings may still be
                # serving theirs — answer the shutdown only when every
                # other dispatcher is idle.
                with self._active_cond:
                    while self._active > 0:
                        self._active_cond.wait(timeout=0.5)
                self._finish_drain(queued)
                self.close()
                return
            with self._active_cond:
                self._active += 1
            try:
                self._serve_one(queued)
            finally:
                with self._active_cond:
                    self._active -= 1
                    if self._active == 0:
                        self._active_cond.notify_all()

    def _serve_one(self, queued: _QueuedRequest) -> None:
        request, deadline = queued.request, queued.deadline
        queue_seconds = time.monotonic() - queued.admitted
        if deadline.expired():
            # Spent its whole budget waiting: answer timeout without
            # doing the work (the engine's deadline semantics, applied
            # to queue wait).
            self.counters.inc("deadline_expired")
            queued.connection.send(protocol.timeout_reply(
                request.id, request.op,
                f"deadline of {deadline.seconds:.3g}s "
                f"expired after {queue_seconds:.3g}s in queue"))
            return
        started = time.monotonic()
        try:
            if self.pool is not None:
                # Deadlines are enforced out of process by the pool
                # supervisor (select + SIGKILL) — no SIGALRM, so this
                # works identically on every dispatcher thread.
                response = self.service.handle(request,
                                               deadline=deadline)
            else:
                with attempt_deadline(deadline.remaining()
                                      if deadline.enabled else 0.0):
                    response = self.service.handle(request)
        except DeadlineExceeded:
            response = protocol.timeout_reply(
                request.id, request.op,
                f"deadline of {deadline.seconds:.3g}s "
                f"exceeded while parsing")
        response.setdefault("serve", {})
        response["serve"].update({
            "queue_seconds": round(queue_seconds, 6),
            "seconds": round(time.monotonic() - started, 6),
        })
        queued.connection.send(response)

    def _finish_drain(self, queued: _QueuedRequest) -> None:
        # Everything admitted before the shutdown has been served (the
        # queue is FIFO and shutdown was submitted after begin_drain).
        self.drained = self.counters.snapshot()["requests"]
        response = self.service.handle(queued.request)
        response["drained"] = self.drained
        response["serve"] = {"queue_seconds":
                             round(time.monotonic() - queued.admitted,
                                   6),
                             "seconds": 0.0}
        queued.connection.send(response)
