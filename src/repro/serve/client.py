"""Remote sessions for the parse daemon: one client, any transport.

:func:`connect` turns an endpoint URL into a :class:`RemoteSession`:

* ``unix:/run/superc.sock`` (or a bare filesystem path) — the
  newline-delimited JSON socket dialect over a Unix-domain socket;
* ``tcp:host:port`` — the same dialect over TCP;
* ``http://host:port`` — the HTTP/JSON frontend
  (:mod:`repro.serve.http`).

All three speak the same protocol core (:mod:`repro.serve.protocol`):
the same ops, the same response envelopes, the same statuses.  The
transports differ only in framing — :class:`SocketTransport` writes
newline-delimited JSON and matches responses by ``id``;
:class:`HttpTransport` maps each op onto its route from
:data:`~repro.serve.protocol.HTTP_ROUTES` and reads one
Content-Length-framed reply per request over a keep-alive connection.

``RemoteSession.parse`` wraps the response record in
:class:`repro.engine.UnitResult`, so a served parse satisfies the same
structural Result protocol (``status/ok/degraded/diagnostics/timing/
profile``) as a local ``repro.api.Session.parse`` — callers can switch
between in-process and daemon parsing without changing a line.

**Fault tolerance.**  A daemon restarting under supervision refuses
connections (``ECONNREFUSED``), tears existing ones
(``ECONNRESET``/EOF), or — over HTTP — drops a reply mid-body
(``IncompleteRead``); :meth:`Transport.request` absorbs all of that by
reconnecting and resending under bounded, deterministic seeded-jitter
exponential backoff.  When the retry budget is spent it returns a
*structured* ``{"status": "unavailable", ...}`` response instead of
raising a raw transport error, so callers (and the CLI) handle a down
daemon the same way they handle a shed or timed-out request.  Every op
in the protocol is idempotent, so a resend after a torn connection is
safe.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.engine.results import UnitResult
from repro.engine.scheduler import backoff_delay
from repro.serve import protocol
from repro.serve.protocol import STATUS_UNAVAILABLE  # noqa: F401 - compat

DEFAULT_TIMEOUT = 60.0


class ServeError(ConnectionError):
    """The server connection failed or answered garbage.

    ``retryable`` marks transport-level failures a reconnect can heal
    (refused/reset connections, EOF or a torn HTTP body mid-response);
    protocol-level garbage (an unparseable response) is not retryable.
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class Transport:
    """Retry policy and op helpers shared by every transport.

    Subclasses implement :meth:`connect`, :meth:`close`, and
    :meth:`_request_once` (one attempt: send a request, block for its
    response, raise :class:`ServeError` on failure).
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT,
                 retries: int = 4,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max: float = 1.0,
                 backoff_jitter: float = 0.5,
                 backoff_seed: int = 0):
        self.timeout = timeout
        # request() absorbs this many reconnect-and-resend attempts
        # after the first failure before answering "unavailable".
        self.retries = max(0, retries)
        self.backoff_base = max(0.0, backoff_base)
        self.backoff_factor = max(1.0, backoff_factor)
        self.backoff_max = max(0.0, backoff_max)
        self.backoff_jitter = max(0.0, backoff_jitter)
        self.backoff_seed = backoff_seed
        self._next_id = 0

    # -- connection lifecycle (subclass responsibility) ----------------

    def connect(self) -> "Transport":
        return self

    def close(self) -> None:
        pass

    def _reset_connection(self) -> None:
        """Drop the connection and all half-read state so the next
        attempt starts from a clean transport."""
        self.close()

    def __enter__(self) -> "Transport":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- retrying request loop -----------------------------------------

    def _request_once(self, op: str, fields: Dict[str, Any]) -> dict:
        raise NotImplementedError

    def request(self, op: str, **fields: Any) -> dict:
        """Send one request and block for its response.

        Transport failures (daemon restarting: refused, reset, EOF,
        torn HTTP body) are retried with bounded seeded-jitter
        backoff; a spent budget answers ``status="unavailable"``
        instead of raising."""
        attempts = 0
        last: Optional[ServeError] = None
        while attempts <= self.retries:
            attempts += 1
            try:
                return self._request_once(op, fields)
            except ServeError as exc:
                if not exc.retryable:
                    raise
                last = exc
                self._reset_connection()
                if attempts <= self.retries:
                    delay = backoff_delay(self, attempts)
                    if delay > 0:
                        time.sleep(delay)
        return protocol.unavailable_reply(op, attempts, last)

    # -- ops -----------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def parse(self, path: Optional[str] = None,
              text: Optional[str] = None,
              filename: Optional[str] = None,
              deadline: Optional[float] = None,
              fresh: bool = False) -> UnitResult:
        """Parse via the daemon; returns a Result-protocol view whose
        ``.record`` carries the full response (``cache``, ``tier``,
        ``serve`` timings included)."""
        response = self.request("parse", path=path, text=text,
                                filename=filename, deadline=deadline,
                                fresh=fresh or None)
        # Shed/timeout responses carry no record body; keep the
        # UnitResult view total anyway.
        response.setdefault("unit", path or filename or "<input>")
        return UnitResult(response)

    def invalidate(self, path: str,
                   text: Optional[str] = None) -> dict:
        return self.request("invalidate", path=path, text=text)

    def stats(self) -> dict:
        response = self.request("stats")
        return response.get("stats") or {}

    def shutdown(self) -> dict:
        return self.request("shutdown")


class SocketTransport(Transport):
    """The newline-delimited JSON dialect over a Unix socket or TCP.

    The synchronous :meth:`request` sends one request and blocks for
    its response; :meth:`submit` / :meth:`drain` pipeline many
    requests at once (burst testing, editors batching a save-storm)
    and match responses by ``id``.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None,
                 port: Optional[int] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = 4,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max: float = 1.0,
                 backoff_jitter: float = 0.5,
                 backoff_seed: int = 0):
        if socket_path is None and port is None:
            raise ValueError("need socket_path or host/port")
        super().__init__(timeout=timeout, retries=retries,
                         backoff_base=backoff_base,
                         backoff_factor=backoff_factor,
                         backoff_max=backoff_max,
                         backoff_jitter=backoff_jitter,
                         backoff_seed=backoff_seed)
        self.socket_path = socket_path
        self.host = host or "127.0.0.1"
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._recv_buffer = b""
        self._pending: Dict[Any, dict] = {}

    # -- connection ----------------------------------------------------

    def connect(self) -> "SocketTransport":
        if self._sock is not None:
            return self
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ServeError(f"cannot connect to parse server: {exc}",
                             retryable=True) from exc
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reset_connection(self) -> None:
        self.close()
        self._recv_buffer = b""
        self._pending.clear()

    # -- wire ----------------------------------------------------------

    def submit(self, op: str, **fields: Any) -> int:
        """Send one request without waiting; returns its ``id``."""
        self.connect()
        self._next_id += 1
        request = {"id": self._next_id, "op": op}
        request.update({key: value for key, value in fields.items()
                        if value is not None})
        payload = (json.dumps(request) + "\n").encode("utf-8")
        try:
            self._sock.sendall(payload)
        except OSError as exc:
            raise ServeError(f"send failed: {exc}",
                             retryable=True) from exc
        return self._next_id

    def _read_response(self) -> dict:
        while b"\n" not in self._recv_buffer:
            try:
                chunk = self._sock.recv(65536)
            except OSError as exc:
                raise ServeError(f"receive failed: {exc}",
                                 retryable=True) from exc
            if not chunk:
                raise ServeError("server closed the connection",
                                 retryable=True)
            self._recv_buffer += chunk
        line, _sep, self._recv_buffer = \
            self._recv_buffer.partition(b"\n")
        try:
            return json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServeError(f"bad response line: {exc}") from exc

    def wait_for(self, request_id: int) -> dict:
        """Response for ``request_id``; responses arriving out of order
        (sheds overtaking parses) are parked for their own waiters."""
        if request_id in self._pending:
            return self._pending.pop(request_id)
        while True:
            response = self._read_response()
            if response.get("id") == request_id:
                return response
            self._pending[response.get("id")] = response

    def _request_once(self, op: str, fields: Dict[str, Any]) -> dict:
        return self.wait_for(self.submit(op, **fields))

    def drain(self, request_ids: List[int]) -> List[dict]:
        """Collect responses for a pipelined burst, in request order."""
        return [self.wait_for(request_id) for request_id in request_ids]


class HttpTransport(Transport):
    """The HTTP/JSON frontend over a keep-alive HTTP/1.1 connection.

    Each op is sent on its :data:`~repro.serve.protocol.HTTP_ROUTES`
    route with a Content-Length-framed JSON body; the response body is
    the same envelope the socket dialect carries (the HTTP status code
    is derived from the envelope and adds nothing, so it is ignored
    here — the envelope's ``status`` is authoritative on both
    transports).
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = 4,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max: float = 1.0,
                 backoff_jitter: float = 0.5,
                 backoff_seed: int = 0):
        if port is None:
            raise ValueError("need host/port")
        super().__init__(timeout=timeout, retries=retries,
                         backoff_base=backoff_base,
                         backoff_factor=backoff_factor,
                         backoff_max=backoff_max,
                         backoff_jitter=backoff_jitter,
                         backoff_seed=backoff_seed)
        self.host = host
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- connection ----------------------------------------------------

    def connect(self) -> "HttpTransport":
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    # -- wire ----------------------------------------------------------

    def _request_once(self, op: str, fields: Dict[str, Any]) -> dict:
        try:
            method, route = protocol.HTTP_ROUTES[op]
        except KeyError:
            raise ServeError(f"unknown op {op!r}") from None
        self.connect()
        self._next_id += 1
        request = {"id": self._next_id}
        request.update({key: value for key, value in fields.items()
                        if value is not None})
        body = json.dumps(request).encode("utf-8")
        try:
            self._conn.request(
                method, route, body=body,
                headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError) as exc:
            # Covers refused/reset connections and a torn body
            # (IncompleteRead is an HTTPException): reconnect, resend.
            raise ServeError(f"http request failed: {exc}",
                             retryable=True) from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServeError(f"bad response body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("response body must be a JSON object")
        return payload


# -- endpoint URLs -----------------------------------------------------


def parse_endpoint(url: str) -> Tuple[str, ...]:
    """Parse an endpoint URL into ``("unix", path)``,
    ``("tcp", host, port)``, or ``("http", host, port)``.

    Accepted forms: ``unix:/path`` (also ``unix:///path`` and bare
    filesystem paths), ``tcp:host:port`` (also ``tcp://host:port``),
    and ``http://host[:port]``.
    """
    if not isinstance(url, str) or not url:
        raise ValueError("endpoint URL must be a non-empty string")
    if url.startswith("unix:"):
        path = url[len("unix:"):]
        if path.startswith("//"):
            # unix://<path>: no authority is meaningful, keep the path.
            path = path[2:]
        if not path:
            raise ValueError(f"no socket path in {url!r}")
        return ("unix", path)
    if url.startswith("tcp:"):
        rest = url[len("tcp:"):]
        if rest.startswith("//"):
            rest = rest[2:]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not port_text.isdigit():
            raise ValueError(f"tcp endpoint needs host:port, "
                             f"got {url!r}")
        return ("tcp", host or "127.0.0.1", int(port_text))
    if url.startswith("http://"):
        from urllib.parse import urlsplit
        parts = urlsplit(url)
        if not parts.hostname:
            raise ValueError(f"no host in {url!r}")
        # `or 80` would turn an explicit port 0 (server-side "pick a
        # free port") into 80; only default a *missing* port.
        port = parts.port if parts.port is not None else 80
        return ("http", parts.hostname, port)
    if "://" in url or (":" in url.split("/", 1)[0]
                        and not url.startswith("/")):
        scheme = url.split(":", 1)[0]
        raise ValueError(
            f"unsupported endpoint scheme {scheme!r} "
            f"(use unix:, tcp:, or http://)")
    # A bare filesystem path means the Unix socket at that path.
    return ("unix", url)


def make_transport(url: str, **options: Any) -> Transport:
    """Build the right :class:`Transport` for an endpoint URL.

    ``options`` (``timeout``, ``retries``, ``backoff_*``) pass through
    to the transport constructor.
    """
    endpoint = parse_endpoint(url)
    if endpoint[0] == "unix":
        return SocketTransport(socket_path=endpoint[1], **options)
    if endpoint[0] == "tcp":
        return SocketTransport(host=endpoint[1], port=endpoint[2],
                               **options)
    return HttpTransport(host=endpoint[1], port=endpoint[2], **options)


# -- the session facade ------------------------------------------------


class RemoteSession:
    """One remote parse daemon behind the Session surface.

    Mirrors ``repro.api.Session``: :meth:`parse` returns an object
    satisfying the structural Result protocol, :meth:`parse_file`
    parses by path.  The transport is chosen by :func:`connect`'s
    endpoint URL; everything above it is identical across transports.
    """

    def __init__(self, url: Optional[str] = None,
                 transport: Optional[Transport] = None,
                 **options: Any):
        if transport is None:
            if url is None:
                raise ValueError("need an endpoint URL or a transport")
            transport = make_transport(url, **options)
        self.url = url
        self.transport = transport

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "RemoteSession":
        self.transport.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RemoteSession(url={self.url!r}, "
                f"transport={type(self.transport).__name__})")

    # -- ops -----------------------------------------------------------

    def ping(self) -> dict:
        return self.transport.ping()

    def parse(self, path: Optional[str] = None,
              text: Optional[str] = None,
              filename: Optional[str] = None,
              deadline: Optional[float] = None,
              fresh: bool = False) -> UnitResult:
        """Parse by server-side ``path``, by ``text`` buffer, or both
        (an explicit buffer for a known path is an overlay edit)."""
        return self.transport.parse(path=path, text=text,
                                    filename=filename,
                                    deadline=deadline, fresh=fresh)

    def parse_file(self, path: Union[str, Any],
                   deadline: Optional[float] = None,
                   fresh: bool = False) -> UnitResult:
        """Parse the unit at ``path`` (the local ``Session.parse_file``
        shape)."""
        return self.parse(path=str(path), deadline=deadline,
                          fresh=fresh)

    def invalidate(self, path: str,
                   text: Optional[str] = None) -> dict:
        return self.transport.invalidate(path, text=text)

    def stats(self) -> dict:
        return self.transport.stats()

    def shutdown(self) -> dict:
        return self.transport.shutdown()


def connect(url: str, **options: Any) -> RemoteSession:
    """Open a :class:`RemoteSession` to a running parse daemon.

    ``url`` is ``unix:/path`` (or a bare socket path),
    ``tcp:host:port``, or ``http://host:port``; ``options``
    (``timeout``, ``retries``, ``backoff_*``) tune the transport.
    """
    return RemoteSession(url=url, **options)


__all__ = [
    "DEFAULT_TIMEOUT", "HttpTransport", "RemoteSession", "ServeError",
    "SocketTransport", "STATUS_UNAVAILABLE", "Transport", "connect",
    "make_transport", "parse_endpoint",
]
