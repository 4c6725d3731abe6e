"""HTTP/JSON frontend for the parse daemon.

The socket dialect (:mod:`repro.serve.server`) is fast but bespoke;
this module puts a standard HTTP/1.1 surface on the *same* protocol
core, so browsers, ``curl``, load balancers, and the
variability-visualization tooling of the related work can reach a
running daemon without a custom client:

====== =================  ============================================
method route              op
====== =================  ============================================
POST   ``/v1/parse``      :class:`~repro.serve.protocol.ParseRequest`
POST   ``/v1/invalidate`` :class:`~repro.serve.protocol.InvalidateRequest`
GET    ``/v1/stats``      :class:`~repro.serve.protocol.StatsRequest`
GET    ``/v1/ping``       :class:`~repro.serve.protocol.PingRequest`
POST   ``/v1/shutdown``   :class:`~repro.serve.protocol.ShutdownRequest`
GET    ``/healthz``       load-balancer health: 200 while serving,
                          503 while draining or while the pool's
                          crash-loop breaker is open
====== =================  ============================================

Request bodies are JSON objects with exactly the socket protocol's
fields (the ``op`` comes from the route); responses are the same JSON
envelopes the socket emits, with the envelope ``status`` mapped onto a
meaningful HTTP code through the protocol's single
:data:`~repro.serve.protocol.HTTP_STATUS_CODES` table —
200 ok/degraded, 400 malformed request, 422 parse-failed/error,
429 shed, 503 crashed/unavailable, 504 timeout.

**Semantics are identical to the socket path by construction**: every
handler thread admits its request through
:meth:`~repro.serve.server.ParseServer.submit_request`, which runs the
same admission queue, the same deadline bookkeeping (queue wait counts
against the budget), the same shedding, and the same dispatcher
threads — the HTTP layer is framing only.  ``ThreadingHTTPServer``
handler threads are the HTTP analogue of the socket's per-connection
reader threads: they block on a response slot, never parse.

Framing is Content-Length on both sides and connections are keep-alive
(HTTP/1.1 default), so one client connection can serve many requests
— the warm-cache point of the daemon survives the transport.

Observability: ``serve.http.requests`` / ``serve.http.errors``
counters (the per-request ``serve.request`` spans come from the shared
service layer).  Chaos: the ``http.send`` site fires before every
response; an armed ``torn-body`` fault truncates the response mid-body
and drops the connection, ``drop-conn`` closes the socket before any
byte — both heal through the HTTP client's reconnect-and-resend.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import chaos
from repro.obs.tracer import NULL_TRACER
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

# (method, path) -> op, inverted from the protocol's single op->route
# table so frontend and client transport can never disagree.  The op
# is route-determined; any "op" field in the body is ignored, so a
# body cannot smuggle a different operation past the route's
# semantics.
ROUTES: Dict[Tuple[str, str], str] = {
    (method, route): op
    for op, (method, route) in protocol.HTTP_ROUTES.items()
}

HEALTH_ROUTE = "/healthz"

# Bodies above this are refused with 413 before being read — the same
# bound the pool puts on a pipe frame.
MAX_BODY = 64 * 1024 * 1024


class _HttpServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its frontend and never blocks
    shutdown on a lingering keep-alive connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler: type,
                 frontend: "HttpFrontend"):
        self.frontend = frontend
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request: route, decode, admit, answer."""

    protocol_version = "HTTP/1.1"
    server_version = "superc-serve"
    # Replies go out as two writes (headers, then body).  With Nagle on,
    # the body waits for the client's delayed ACK of the headers, which
    # adds about 40 ms to every keep-alive reply.
    disable_nagle_algorithm = True

    # -- entry points --------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == HEALTH_ROUTE:
            self._handle_health()
        else:
            self._handle_op("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle_op("POST")

    # -- plumbing ------------------------------------------------------

    @property
    def frontend(self) -> "HttpFrontend":
        return self.server.frontend

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; the obs counters and spans carry the story.
        pass

    def _read_body(self) -> Optional[dict]:
        """Content-Length-framed JSON body; {} when absent.  Answers
        the HTTP error itself and returns None when unusable."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            if self.command == "POST":
                self._send_error_envelope(
                    411, "POST needs a Content-Length-framed body")
                return None
            return {}
        try:
            length = int(length_header)
        except ValueError:
            self._send_error_envelope(400, "bad Content-Length")
            return None
        if length > MAX_BODY:
            self._send_error_envelope(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error_envelope(400, f"bad request body: {exc}")
            return None
        if not isinstance(body, dict):
            self._send_error_envelope(
                400, "request body must be a JSON object")
            return None
        return body

    def _handle_op(self, method: str) -> None:
        frontend = self.frontend
        if frontend.tracer.enabled:
            frontend.tracer.count("serve.http.requests")
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        op = ROUTES.get((method, path))
        if op is None:
            known = {route for _method, route in ROUTES}
            if path in known or path == HEALTH_ROUTE:
                self._send_error_envelope(
                    405, f"{method} not allowed on {path}")
            else:
                self._send_error_envelope(404, f"no route {path}")
            return
        body = self._read_body()
        if body is None:
            return
        body["op"] = op
        try:
            request = protocol.decode_request(body)
        except ProtocolError as exc:
            # Validation failures are the client's fault: 400, with
            # the same error envelope the socket would have sent.
            self._send_json(400, protocol.error_reply(
                exc.request_id, exc.op or op, str(exc)))
            return
        response = frontend.server.submit_request(request)
        self._send_json(protocol.http_status(response.get("status")),
                        response)

    def _handle_health(self) -> None:
        """Load-balancer health: 200 while serving, 503 while draining
        or while the worker pool's crash-loop breaker is open."""
        server = self.frontend.server
        pool = server.service.pool
        breaker_open = pool is not None and pool.breaker.tripped
        draining = server.queue.draining
        healthy = not breaker_open and not draining
        body = {
            "status": "ok" if healthy else "unavailable",
            "draining": draining,
            "breaker_open": breaker_open,
            "protocol": protocol.PROTOCOL_VERSION,
        }
        self._send_json(200 if healthy else 503, body)

    # -- response writing ----------------------------------------------

    def _send_error_envelope(self, code: int, message: str) -> None:
        if self.frontend.tracer.enabled:
            self.frontend.tracer.count("serve.http.errors")
        self._send_json(code, protocol.error_reply(None, None, message))

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        if code >= 400 and self.frontend.tracer.enabled:
            self.frontend.tracer.count("serve.http.errors")
        try:
            if chaos.ACTIVE is not None:
                # "drop-conn" closes the socket under us right here;
                # "torn-body" tags the box and we act it out below.
                box: Dict[str, Any] = {}
                chaos.fire("http.send", sock=self.connection, box=box)
                if box.get("torn"):
                    # Full Content-Length, half the body, then a hard
                    # close: the client sees an IncompleteRead mid-
                    # reply and must reconnect and resend.
                    self.send_response(code)
                    self.send_header("Content-Type",
                                     "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body[:max(1, len(body) // 2)])
                    self.wfile.flush()
                    self.close_connection = True
                    self.connection.close()
                    return
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The peer (or a chaos fault) tore the connection; there
            # is nobody left to answer.
            self.close_connection = True


class HttpFrontend:
    """The daemon's HTTP listener: binds, serves on daemon threads,
    and rides the owning :class:`~repro.serve.server.ParseServer`'s
    admission queue for every request."""

    def __init__(self, server: Any, host: str = "127.0.0.1",
                 port: int = 0, tracer: Any = None):
        self.server = server
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._requested = (host, port)
        self._httpd: Optional[_HttpServer] = None
        self._thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> "HttpFrontend":
        """Bind (port 0 picks a free port) and serve in the
        background."""
        if self._httpd is not None:
            return self
        self._httpd = _HttpServer(self._requested, _Handler, self)
        self.address = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def url(self) -> Optional[str]:
        if self.address is None:
            return None
        return "http://%s:%d" % self.address


__all__ = ["HEALTH_ROUTE", "HttpFrontend", "ROUTES"]
