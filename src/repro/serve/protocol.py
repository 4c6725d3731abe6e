"""Transport-agnostic protocol core: one request model, one codec.

The daemon grew two network surfaces — the newline-delimited JSON
socket dialect (PR 6) and the HTTP/JSON frontend — and both must mean
exactly the same thing by ``parse``, ``invalidate``, ``stats``,
``shed``, and every error.  This module is where that meaning lives,
defined once:

* **Typed requests.**  :class:`ParseRequest`, :class:`InvalidateRequest`,
  :class:`StatsRequest`, :class:`ShutdownRequest`, :class:`PingRequest`
  — one class per op, each with ``from_wire`` validation and a
  ``to_wire`` serializer.  :func:`decode_request` is the single entry
  point both transports call; a malformed payload raises
  :class:`ProtocolError` carrying the request ``id`` so the error
  envelope can still be matched by the client.
* **One status taxonomy.**  The engine's unit statuses
  (``ok``/``degraded``/``parse-failed``/``error``/``timeout``/
  ``crashed``) plus the service-level ones (``shed`` — refused by
  admission control; ``unavailable`` — the daemon could not be reached)
  and the single :data:`HTTP_STATUS_CODES` mapping that gives each a
  meaningful HTTP code (200/422/429/503/504).
* **One response envelope.**  :func:`reply` / :func:`error_reply` /
  :func:`shed_reply` / :func:`timeout_reply` / :func:`unavailable_reply`
  build every response both transports emit, so the shape
  (``id``/``op``/``status``/``error``) can never drift between them.
* **Worker wire.**  The pool's parent↔child pipe frames ride the same
  codec: :class:`WorkerParse` / :class:`WorkerPing` / :class:`WorkerExit`
  with :func:`decode_worker`, instead of a second ad-hoc dict dialect.

The module is deliberately shallow: it imports only the engine's
status constants, so every transport (and the client) can depend on it
without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type

from repro.engine.results import (STATUS_CRASHED, STATUS_DEGRADED,
                                  STATUS_ERROR, STATUS_OK,
                                  STATUS_PARSE_FAILED, STATUS_TIMEOUT)

PROTOCOL_VERSION = 1

# Service-level statuses, alongside the engine's unit statuses: the
# request was refused by admission control and no work was done ...
STATUS_SHED = "shed"
# ... or the daemon could not be reached within the client's retry
# budget (a client-side answer; the server never emits it).
STATUS_UNAVAILABLE = "unavailable"

# Every status a response envelope may carry, engine and service side.
STATUSES = (STATUS_OK, STATUS_DEGRADED, STATUS_PARSE_FAILED,
            STATUS_ERROR, STATUS_TIMEOUT, STATUS_CRASHED, STATUS_SHED,
            STATUS_UNAVAILABLE)

# Failure records describe one attempt, not the unit: publishing them
# to the warm tiers would pin a transient crash/timeout as the unit's
# answer.  Mirrors the batch engine's non-caching of retryable states.
UNCACHEABLE_STATUSES = (STATUS_ERROR, STATUS_TIMEOUT, STATUS_CRASHED)

# The one status -> HTTP code mapping, shared by the HTTP frontend and
# its client.  ok/degraded are usable answers (200); parse-failed and
# error describe the request's content (422); shed is back-pressure
# (429, retry later); timeout is an upstream deadline (504); crashed
# and unavailable mean the service itself is in trouble (503).
HTTP_STATUS_CODES: Dict[str, int] = {
    STATUS_OK: 200,
    STATUS_DEGRADED: 200,
    STATUS_PARSE_FAILED: 422,
    STATUS_ERROR: 422,
    STATUS_SHED: 429,
    STATUS_TIMEOUT: 504,
    STATUS_CRASHED: 503,
    STATUS_UNAVAILABLE: 503,
}


def http_status(status: Optional[str]) -> int:
    """HTTP code for a response envelope's ``status`` (500 unknown)."""
    return HTTP_STATUS_CODES.get(status or "", 500)


# op -> (HTTP method, route).  Part of the protocol, not of either
# side: the HTTP frontend derives its routing table from this and the
# HTTP client transport derives its request lines, so they can never
# disagree about where an op lives.
HTTP_ROUTES: Dict[str, Tuple[str, str]] = {
    "parse": ("POST", "/v1/parse"),
    "invalidate": ("POST", "/v1/invalidate"),
    "stats": ("GET", "/v1/stats"),
    "ping": ("GET", "/v1/ping"),
    "shutdown": ("POST", "/v1/shutdown"),
}


class ProtocolError(ValueError):
    """A request failed validation before any work was done.

    Carries the offending payload's ``id``/``op`` so transports can
    still answer with a matchable error envelope.
    """

    def __init__(self, message: str, request_id: Any = None,
                 op: Optional[str] = None):
        super().__init__(message)
        self.request_id = request_id
        self.op = op


# -- requests ----------------------------------------------------------


class Request:
    """Base of every typed request; ``op`` names the operation."""

    op: str = ""
    __slots__ = ("id",)

    def __init__(self, id: Any = None):  # noqa: A002 - wire name
        self.id = id

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Request":
        return cls(id=payload.get("id"))

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"op": self.op}
        if self.id is not None:
            wire["id"] = self.id
        return wire

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r})"


class ParseRequest(Request):
    """Parse one unit: by ``path``, by ``text`` buffer, or both (an
    explicit buffer for a known path is an overlay edit).

    ``deadline`` (seconds) overrides the server default; ``fresh``
    skips every cache tier; ``delay`` is a testing aid (sleep before
    parsing, so tests can pile up a burst deterministically).
    """

    op = "parse"
    __slots__ = ("path", "text", "filename", "deadline", "fresh",
                 "delay")

    def __init__(self, path: Optional[str] = None,
                 text: Optional[str] = None,
                 filename: Optional[str] = None,
                 deadline: Optional[float] = None,
                 fresh: bool = False,
                 delay: float = 0.0,
                 id: Any = None):  # noqa: A002
        super().__init__(id=id)
        if path is None and text is None:
            raise ProtocolError("parse needs path or text",
                                request_id=id, op=self.op)
        self.path = path
        self.text = text
        self.filename = filename
        self.deadline = deadline
        self.fresh = fresh
        self.delay = delay

    @property
    def unit(self) -> str:
        """The unit name the response will carry."""
        return self.path or self.filename or "<input>"

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ParseRequest":
        rid = payload.get("id")
        path = payload.get("path")
        text = payload.get("text")
        if path is not None and not isinstance(path, str):
            raise ProtocolError("parse path must be a string",
                                request_id=rid, op=cls.op)
        if text is not None and not isinstance(text, str):
            raise ProtocolError("parse text must be a string",
                                request_id=rid, op=cls.op)
        try:
            deadline = (float(payload["deadline"])
                        if payload.get("deadline") is not None else None)
            delay = float(payload.get("delay") or 0.0)
        except (TypeError, ValueError):
            raise ProtocolError("parse deadline/delay must be numbers",
                                request_id=rid, op=cls.op) from None
        return cls(path=path, text=text,
                   filename=payload.get("filename"),
                   deadline=deadline,
                   fresh=bool(payload.get("fresh")),
                   delay=delay, id=rid)

    def to_wire(self) -> Dict[str, Any]:
        wire = super().to_wire()
        for name in ("path", "text", "filename", "deadline"):
            value = getattr(self, name)
            if value is not None:
                wire[name] = value
        if self.fresh:
            wire["fresh"] = True
        if self.delay:
            wire["delay"] = self.delay
        return wire


class InvalidateRequest(Request):
    """Drop the warm entries of every unit whose recorded read-set
    holds ``path``; ``text`` installs new content (in-memory overlay
    edit)."""

    op = "invalidate"
    __slots__ = ("path", "text")

    def __init__(self, path: str, text: Optional[str] = None,
                 id: Any = None):  # noqa: A002
        super().__init__(id=id)
        if not path or not isinstance(path, str):
            raise ProtocolError("invalidate needs a path",
                                request_id=id, op=self.op)
        self.path = path
        self.text = text

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "InvalidateRequest":
        rid = payload.get("id")
        text = payload.get("text")
        if text is not None and not isinstance(text, str):
            raise ProtocolError("invalidate text must be a string",
                                request_id=rid, op=cls.op)
        return cls(path=payload.get("path"), text=text, id=rid)

    def to_wire(self) -> Dict[str, Any]:
        wire = super().to_wire()
        wire["path"] = self.path
        if self.text is not None:
            wire["text"] = self.text
        return wire


class StatsRequest(Request):
    """Server statistics (control plane: answered inline, never
    queued)."""

    op = "stats"
    __slots__ = ()


class PingRequest(Request):
    """Liveness probe; answers the protocol version."""

    op = "ping"
    __slots__ = ()


class ShutdownRequest(Request):
    """Graceful draining shutdown: admitted work is served first."""

    op = "shutdown"
    __slots__ = ()


REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.op: cls for cls in (ParseRequest, InvalidateRequest,
                            StatsRequest, PingRequest, ShutdownRequest)
}

OPS: Tuple[str, ...] = tuple(REQUEST_TYPES)


def decode_request(payload: Any) -> Request:
    """Validate one wire payload into a typed request.

    Raises :class:`ProtocolError` (carrying the payload's ``id``) for
    anything malformed: not an object, unknown op, missing or
    mistyped fields.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got "
            f"{type(payload).__name__}")
    op = payload.get("op")
    cls = REQUEST_TYPES.get(op) if isinstance(op, str) else None
    if cls is None:
        raise ProtocolError(f"unknown op {op!r}",
                            request_id=payload.get("id"), op=op)
    return cls.from_wire(payload)


# -- the response envelope ---------------------------------------------


def reply(request_id: Any, op: Optional[str],
          **fields: Any) -> Dict[str, Any]:
    """The one response envelope: ``id`` + ``op`` + payload fields."""
    response: Dict[str, Any] = {"id": request_id, "op": op}
    response.update(fields)
    return response


def reply_to(request: Any, **fields: Any) -> Dict[str, Any]:
    """:func:`reply` addressed to a typed request or a raw payload."""
    if isinstance(request, Request):
        return reply(request.id, request.op, **fields)
    payload = request if isinstance(request, dict) else {}
    return reply(payload.get("id"), payload.get("op"), **fields)


def error_reply(request_id: Any, op: Optional[str],
                message: str) -> Dict[str, Any]:
    return reply(request_id, op, status=STATUS_ERROR, error=message)


def shed_reply(request_id: Any, op: Optional[str],
               reason: str) -> Dict[str, Any]:
    return reply(request_id, op, status=STATUS_SHED, error=reason)


def timeout_reply(request_id: Any, op: Optional[str],
                  message: str) -> Dict[str, Any]:
    return reply(request_id, op, status=STATUS_TIMEOUT, error=message)


def unavailable_reply(op: Optional[str], attempts: int,
                      error: Any) -> Dict[str, Any]:
    """Client-side: the daemon could not be reached; no work was
    done."""
    return reply(None, op, status=STATUS_UNAVAILABLE,
                 attempts=attempts,
                 error=f"{error} (after {attempts} attempts)")


# -- the worker wire (pool parent <-> forked child) --------------------


class WorkerRequest:
    """Base of the pool's parent->child pipe frames."""

    op: str = ""
    __slots__ = ()

    def to_wire(self) -> Dict[str, Any]:
        return {"op": self.op}


class WorkerParse(WorkerRequest):
    """One out-of-process parse: the unit, its text, and the parent
    file store's current text of every path edited since it started
    (None: missing), so the child's inherited store sees what the
    parent sees — for any file the parse may read.

    ``chaos``/``chaos_seconds`` carry a fault-injection tag across the
    pipe — the supervisor arms it, the child acts it out.
    """

    op = "parse"
    __slots__ = ("unit", "text", "files", "chaos", "chaos_seconds")

    def __init__(self, unit: str, text: str,
                 files: Optional[Dict[str, Optional[str]]] = None,
                 chaos: Optional[str] = None,
                 chaos_seconds: float = 0.0):
        self.unit = unit
        self.text = text
        self.files = files or {}
        self.chaos = chaos
        self.chaos_seconds = chaos_seconds

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"op": self.op, "unit": self.unit,
                                "text": self.text, "files": self.files}
        if self.chaos is not None:
            wire["_chaos"] = self.chaos
            wire["_chaos_seconds"] = self.chaos_seconds
        return wire


class WorkerPing(WorkerRequest):
    op = "ping"
    __slots__ = ()


class WorkerExit(WorkerRequest):
    op = "exit"
    __slots__ = ()


def decode_worker(payload: Any) -> Optional[WorkerRequest]:
    """Typed view of one worker-pipe frame; None for garbage (the
    child treats it like EOF and exits)."""
    if not isinstance(payload, dict):
        return None
    op = payload.get("op")
    if op == "exit":
        return WorkerExit()
    if op == "ping":
        return WorkerPing()
    if op == "parse":
        return WorkerParse(
            unit=payload.get("unit") or "<input>",
            text=payload.get("text") or "",
            files=payload.get("files") or {},
            chaos=payload.get("_chaos"),
            chaos_seconds=float(payload.get("_chaos_seconds") or 30.0))
    return None


def pong(rss_kb: int) -> Dict[str, Any]:
    """The child's heartbeat answer (carries its RSS for recycling)."""
    return {"op": "ping", "ok": True, "rss_kb": rss_kb}


__all__ = [
    "HTTP_ROUTES", "HTTP_STATUS_CODES", "InvalidateRequest", "OPS",
    "ParseRequest",
    "PingRequest", "PROTOCOL_VERSION", "ProtocolError", "Request",
    "REQUEST_TYPES", "STATUSES", "STATUS_CRASHED", "STATUS_DEGRADED",
    "STATUS_ERROR", "STATUS_OK", "STATUS_PARSE_FAILED", "STATUS_SHED",
    "STATUS_TIMEOUT", "STATUS_UNAVAILABLE", "ShutdownRequest",
    "StatsRequest", "UNCACHEABLE_STATUSES", "WorkerExit", "WorkerParse",
    "WorkerPing", "WorkerRequest", "decode_request", "decode_worker",
    "error_reply", "http_status", "pong", "reply", "reply_to",
    "shed_reply", "timeout_reply", "unavailable_reply",
]
