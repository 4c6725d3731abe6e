"""Persistent parse service: warm caches, incremental re-parsing.

Every batch entry point (``superc-parse``, ``superc-batch``) is a
cold process: it re-pays grammar-table loading, header reads, and
macro-table construction per invocation.  This subsystem is the
long-lived alternative — a daemon that parses over warm state with
sub-second repeat latency, built for interactive variability tooling:

* :class:`ServerState` (``state.py``) — warm LALR tables in one
  reusable session, a content-fingerprinted file store, and per-unit
  parse entries keyed by unit and source digest under a config
  fingerprint, each holding the read-set its parse recorded, layered
  over the batch engine's on-disk :class:`repro.engine.ResultCache`
  so daemon and batch runs share one result cache.  Invalidation
  demotes exactly the entries whose read-set holds the edited path;
* :mod:`repro.serve.incremental` — token-level fingerprints that
  short-circuit re-parses after layout-only edits;
* :class:`AdmissionQueue` (``admission.py``) — bounded queueing with
  ``status=shed`` load shedding, per-request deadlines (SIGALRM
  :func:`~repro.serve.admission.attempt_deadline` without a pool),
  and graceful drain on shutdown;
* :class:`ParseServer` / :class:`ParseService` (``server.py``) — the
  newline-delimited JSON protocol (``parse`` / ``invalidate`` /
  ``stats`` / ``shutdown``) over Unix-domain or TCP sockets;
* :class:`WorkerPool` (``pool.py``) — a supervised pre-forked worker
  pool: each parse runs in a child process under supervisor-enforced
  deadlines (no SIGALRM), crashed workers restart under seeded
  backoff, and a crash-loop breaker degrades the daemon to inline
  parsing instead of letting it die.  The batch engine runs its
  parallel and deadlined units on the same pool;
* :class:`ParseJournal` (``journal.py``) — crash-surviving warm-state
  metadata beside the result cache, so a restarted daemon resumes
  disk/token-tier short-circuiting immediately;
* :mod:`repro.serve.protocol` — the transport-agnostic protocol core:
  typed requests (:class:`ParseRequest` …), one validate/serialize
  codec, one status taxonomy, one response envelope — shared by every
  transport so their semantics cannot drift;
* :class:`HttpFrontend` (``http.py``) — the HTTP/1.1 surface
  (``POST /v1/parse``, ``GET /v1/stats``, ``GET /healthz`` …) over the
  same admission queue and dispatchers as the socket listener;
* :func:`connect` / :class:`RemoteSession` (``client.py``) — the
  client library behind the ``superc-serve`` CLI: one session facade
  over :class:`SocketTransport` (``unix:``/``tcp:`` endpoints) and
  :class:`HttpTransport` (``http://`` endpoints); served parses
  satisfy the same structural Result protocol as local ones, and
  transport failures retry under bounded seeded backoff before
  answering ``status="unavailable"``.

One :class:`repro.obs.Counters` registry per daemon
(``ServerState.counters``) holds every counter these components keep;
the ``stats`` op is its snapshot.

Typical use::

    from repro.serve import ParseServer, connect

    server = ParseServer(socket_path="/tmp/superc.sock",
                         include_paths=("include",)).start()
    with connect("unix:/tmp/superc.sock") as session:
        result = session.parse("drivers/mousedev.c")  # miss: parses
        result = session.parse("drivers/mousedev.c")  # hit: warm
        session.invalidate("include/major.h")         # drops its readers
        session.shutdown()                            # graceful drain
"""

from repro.serve.admission import AdmissionQueue, Deadline, QueueClosed
from repro.serve.client import (HttpTransport, RemoteSession,
                                ServeError, SocketTransport, Transport,
                                connect, make_transport, parse_endpoint)
from repro.serve.http import HttpFrontend
from repro.serve.incremental import file_token_digest, token_fingerprint
from repro.serve.journal import ParseJournal
from repro.serve.pool import PoolConfig, Worker, WorkerPool
from repro.serve.protocol import (OPS, PROTOCOL_VERSION, STATUS_SHED,
                                  STATUS_UNAVAILABLE, InvalidateRequest,
                                  ParseRequest, PingRequest,
                                  ProtocolError, Request,
                                  ShutdownRequest, StatsRequest,
                                  decode_request)
from repro.serve.server import ParseServer, ParseService
from repro.serve.state import (TIER_DISK, TIER_MEMORY, TIER_TOKEN,
                               FileStore, ParseEntry, ServerState)

__all__ = [
    "AdmissionQueue", "Deadline", "FileStore", "HttpFrontend",
    "HttpTransport", "InvalidateRequest", "OPS",
    "PROTOCOL_VERSION", "ParseEntry", "ParseJournal", "ParseRequest",
    "ParseServer", "ParseService", "PingRequest", "PoolConfig",
    "ProtocolError", "QueueClosed", "Request", "RemoteSession",
    "STATUS_SHED", "STATUS_UNAVAILABLE", "ServeError",
    "ServerState", "ShutdownRequest", "SocketTransport", "StatsRequest",
    "TIER_DISK", "TIER_MEMORY", "TIER_TOKEN", "Transport", "Worker",
    "WorkerPool", "connect", "decode_request", "file_token_digest",
    "make_transport", "parse_endpoint", "token_fingerprint",
]
