"""Command-line interface: the persistent parse daemon and its client.

Server mode (foreground; requests are dispatched on the main thread).
``--listen URL`` is repeatable — one daemon can serve the socket
dialect and the HTTP frontend concurrently off one warm state::

    python -m repro.tools.serve_cli --listen unix:/tmp/superc.sock \\
        -I include [--max-queue 64] [--deadline 5] [--trace out.json]
    python -m repro.tools.serve_cli --listen tcp:127.0.0.1:7433
    python -m repro.tools.serve_cli --listen unix:/tmp/superc.sock \\
        --listen http://127.0.0.1:7480

Client mode (any op flag switches to client; ops run in the order
parse → invalidate → stats → shutdown, each against the same
daemon)::

    python -m repro.tools.serve_cli --connect unix:/tmp/superc.sock \\
        --parse drivers/mousedev.c --parse drivers/mousedev.c --json
    python -m repro.tools.serve_cli --connect http://127.0.0.1:7480 \\
        --invalidate include/major.h --stats --shutdown

``--workers N`` puts the daemon behind a supervised pre-forked pool of
N parse workers with N concurrent dispatchers.  The pool supervisor is
what cuts a parse at its deadline (it kills the worker), so
``--deadline S`` without ``--workers`` forks a pool of one.  A
per-request ``deadline`` sent to a daemon without a pool is checked
when the request is dequeued only.

The serve contracts themselves (warm hits, invalidation, shedding,
draining, the HTTP routes, and recovery from every :mod:`repro.chaos`
fault) are checked by the tier-1 tests in ``tests/test_serve.py``,
``tests/test_http.py`` and ``tests/test_chaos.py``; the Makefile's
``serve-smoke``, ``http-smoke`` and ``chaos-smoke`` targets run them.

Exit status: 0 success; 1 a client op failed (parse error, shed,
daemon unavailable); 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.engine import DEFAULT_OPTIMIZATION
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.tools.parse_cli import parse_defines


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superc-serve",
        description="Persistent configuration-preserving parse "
                    "service (daemon + client).")
    endpoint = parser.add_argument_group("endpoint")
    endpoint.add_argument("--listen", action="append", default=[],
                          metavar="URL", dest="listen",
                          help="serve this endpoint (repeatable): "
                               "unix:PATH, tcp:HOST:PORT, or "
                               "http://HOST:PORT (port 0 picks a "
                               "free one)")
    endpoint.add_argument("--connect", metavar="URL",
                          dest="connect_url",
                          help="client endpoint: unix:PATH, "
                               "tcp:HOST:PORT, or http://HOST:PORT")
    server = parser.add_argument_group("server")
    server.add_argument("-I", "--include", action="append",
                        default=[], metavar="DIR",
                        help="add an include search directory")
    server.add_argument("-D", "--define", action="append", default=[],
                        metavar="NAME[=VALUE]",
                        help="predefine an object-like macro")
    server.add_argument("--optimization", default=DEFAULT_OPTIMIZATION,
                        choices=sorted(OPTIMIZATION_LEVELS),
                        help="FMLR optimization level")
    server.add_argument("--max-queue", type=int, default=64,
                        metavar="N",
                        help="admission depth; further requests are "
                             "shed (default 64)")
    server.add_argument("--deadline", type=float, default=0.0,
                        metavar="SECONDS",
                        help="default per-request deadline "
                             "(0 disables; without --workers, forks "
                             "a pool of one worker to enforce it)")
    server.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run parses in a supervised pool of N "
                             "forked workers (0 = inline, the "
                             "single-process mode)")
    server.add_argument("--cache-dir", metavar="DIR",
                        help="result-cache directory (shared with "
                             "superc-batch)")
    server.add_argument("--no-result-cache", action="store_true",
                        help="serve from memory only; do not read or "
                             "write the on-disk result cache")
    server.add_argument("--trace", metavar="FILE",
                        help="record the server with repro.obs and "
                             "write a Chrome trace (one lane per "
                             "request) on shutdown")
    client = parser.add_argument_group("client ops")
    client.add_argument("--parse", action="append", default=[],
                        metavar="FILE", dest="parse_paths",
                        help="request a parse of FILE (repeatable; "
                             "implies client mode)")
    client.add_argument("--fresh", action="store_true",
                        help="bypass every cache tier for --parse")
    client.add_argument("--invalidate", action="append", default=[],
                        metavar="PATH", dest="invalidate_paths",
                        help="invalidate PATH (repeatable)")
    client.add_argument("--stats", action="store_true",
                        help="fetch server statistics")
    client.add_argument("--shutdown", action="store_true",
                        help="request a graceful draining shutdown")
    client.add_argument("--json", action="store_true",
                        help="print raw JSON responses")
    return parser


def _resolve_listeners(args) -> Dict[str, Tuple]:
    """Map listener kind -> parsed endpoint for server mode.  Raises
    ValueError on an unparseable URL or duplicate/conflicting kinds."""
    from repro.serve import parse_endpoint
    listeners: Dict[str, Tuple] = {}
    for url in args.listen:
        endpoint = parse_endpoint(url)
        kind = endpoint[0]
        if kind in listeners:
            raise ValueError(f"multiple {kind} listeners requested")
        listeners[kind] = endpoint
    if "unix" in listeners and "tcp" in listeners:
        raise ValueError(
            "cannot serve unix: and tcp: at once (one stream "
            "listener; add http:// for a second surface)")
    return listeners


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    client_mode = bool(args.parse_paths or args.invalidate_paths
                       or args.stats or args.shutdown)
    if not (args.listen or args.connect_url):
        print("error: need --listen URL (server) or --connect URL "
              "(client)", file=sys.stderr)
        return 2
    if client_mode:
        return run_client(args)
    return run_server(args)


def run_server(args) -> int:
    from repro.serve import ParseServer
    try:
        listeners = _resolve_listeners(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.connect_url:
        print("error: --connect is a client flag; servers take "
              "--listen", file=sys.stderr)
        return 2
    if not listeners:
        print("error: need at least one --listen URL",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
    unix_endpoint = listeners.get("unix")
    tcp_endpoint = listeners.get("tcp")
    http_endpoint = listeners.get("http")
    server = ParseServer(
        socket_path=unix_endpoint[1] if unix_endpoint else None,
        host=tcp_endpoint[1] if tcp_endpoint else None,
        port=tcp_endpoint[2] if tcp_endpoint else None,
        http_host=http_endpoint[1] if http_endpoint else None,
        http_port=http_endpoint[2] if http_endpoint else None,
        max_queue=args.max_queue, deadline_seconds=args.deadline,
        workers=max(0, args.workers),
        tracer=tracer, optimization=args.optimization,
        cache_dir=args.cache_dir,
        use_result_cache=not args.no_result_cache,
        include_paths=tuple(args.include),
        extra_definitions=parse_defines(args.define) or None)
    server.bind()
    if unix_endpoint:
        print(f"superc-serve: listening on unix:{server.socket_path}",
              file=sys.stderr)
    if tcp_endpoint:
        print("superc-serve: listening on tcp:%s:%d" % server.address,
              file=sys.stderr)
    if http_endpoint:
        print(f"superc-serve: listening on {server.http.url}",
              file=sys.stderr)
    served = server.serve_forever()
    print(f"superc-serve: drained after {served} request(s)",
          file=sys.stderr)
    if args.trace:
        from repro.obs import write_chrome_trace, to_chrome_trace
        write_chrome_trace(args.trace,
                           to_chrome_trace(
                               tracer, lane_per_root=True,
                               counters=server.counters.snapshot()))
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def run_client(args) -> int:
    from repro.serve import STATUS_UNAVAILABLE, ServeError, connect
    if args.listen:
        print("error: --listen is a server flag; clients take "
              "--connect", file=sys.stderr)
        return 2
    url = args.connect_url
    failures = 0

    def down(response: dict) -> bool:
        """A structured daemon-unreachable response (the client's
        retry budget is already spent at this point)."""
        if response.get("status") != STATUS_UNAVAILABLE:
            return False
        print(f"error: {response.get('error')}", file=sys.stderr)
        return True

    try:
        with connect(url) as session:
            for path in args.parse_paths:
                result = session.parse(path, fresh=args.fresh)
                record = result.record
                if down(record):
                    failures += 1
                    continue
                if args.json:
                    print(json.dumps(record, sort_keys=True))
                else:
                    serve = record.get("serve") or {}
                    print(f"{path}: {result.status} "
                          f"(cache {record.get('cache', '?')}"
                          f"{'/' + record['tier'] if record.get('tier') else ''}, "
                          f"{serve.get('seconds', 0.0):.3f}s)")
                if result.status not in ("ok", "degraded"):
                    failures += 1
            for path in args.invalidate_paths:
                response = session.invalidate(path)
                if down(response):
                    failures += 1
                    continue
                if args.json:
                    print(json.dumps(response, sort_keys=True))
                else:
                    print(f"invalidate {path}: "
                          f"{response.get('count', 0)} unit(s) dropped")
                if response.get("status") != "ok":
                    failures += 1
            if args.stats:
                response = session.transport.request("stats")
                if down(response):
                    failures += 1
                else:
                    print(json.dumps(response.get("stats") or {},
                                     indent=2, sort_keys=True))
            if args.shutdown:
                response = session.shutdown()
                if down(response):
                    failures += 1
                elif args.json:
                    print(json.dumps(response, sort_keys=True))
                else:
                    print(f"shutdown: drained "
                          f"{response.get('drained', 0)} request(s)")
    except (ServeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
