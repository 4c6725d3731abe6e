"""Command-line interface: the persistent parse daemon and its client.

Server mode (foreground; parsing happens on the main thread so
per-request deadlines get SIGALRM enforcement).
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

Smoke mode (``--smoke FILE``) runs the whole serve contract
in-process over a real Unix socket: warm-hit on the second identical
request, reverse-invalidation on a header edit, ``status=shed`` under
an over-depth burst, and a clean draining shutdown — exits nonzero on
the first violated expectation (the Makefile ``serve-smoke`` target).

HTTP smoke mode (``--http-smoke FILE``) starts one daemon with both a
Unix socket and an HTTP listener and drives parse / invalidate /
stats / healthz entirely over HTTP: cache hit on the re-parse, the
socket and HTTP transports answering byte-identical records off the
shared warm cache, and a graceful shutdown via ``POST /v1/shutdown``
(the Makefile ``http-smoke`` target).

Chaos-smoke mode (``--chaos-smoke FILE``) runs the fault-tolerance
contract: under a seeded :mod:`repro.chaos` plan it injects a worker
crash, a parse hang past its deadline, a corrupt cache blob, a
dropped client socket mid-response, an ENOSPC on a cache write, and a
torn HTTP response body — asserting the daemon answers a correct
parse after every fault — then hard-kills the daemon and verifies a
restarted one resumes warm-tier short-circuiting from the journal
through the HTTP frontend (the Makefile ``chaos-smoke`` target).

``--workers N`` puts the daemon behind a supervised pre-forked pool of
N parse workers with N concurrent dispatchers (deadlines enforced by
the pool supervisor, not SIGALRM).

Exit status: 0 success; 1 a client op failed (parse error, shed,
daemon unavailable, smoke expectation violated); 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
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
                             "(0 disables)")
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
    parser.add_argument("--smoke", metavar="FILE",
                        help="run the end-to-end serve smoke against "
                             "FILE (starts its own server)")
    parser.add_argument("--smoke-header", metavar="PATH",
                        help="header to invalidate during --smoke "
                             "(default: first include dir header)")
    parser.add_argument("--http-smoke", metavar="FILE",
                        dest="http_smoke",
                        help="run the HTTP-frontend smoke against "
                             "FILE (starts its own server with "
                             "socket + HTTP listeners)")
    parser.add_argument("--chaos-smoke", metavar="FILE",
                        dest="chaos_smoke",
                        help="run the fault-injection smoke against "
                             "FILE (starts its own server, injects "
                             "the six chaos fault kinds, restarts "
                             "the daemon)")
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
    if args.smoke:
        return run_smoke(args)
    if args.http_smoke:
        return run_http_smoke(args)
    if args.chaos_smoke:
        return run_chaos_smoke(args)
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
    server._start_http()
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


def run_smoke(args) -> int:
    """End-to-end serve contract over a real Unix socket."""
    from repro.serve import ParseServer, connect

    unit = args.smoke
    if not os.path.isfile(unit):
        print(f"error: cannot read {unit}", file=sys.stderr)
        return 2
    header = args.smoke_header
    if header is None:
        for root in args.include:
            names = sorted(name for name in os.listdir(root)
                           if name.endswith(".h"))
            if names:
                header = os.path.join(root, names[0])
                break
    checks: List[str] = []

    def expect(condition: bool, label: str) -> None:
        status = "ok" if condition else "FAIL"
        checks.append(f"  [{status}] {label}")
        if not condition:
            raise AssertionError(label)

    tmp = tempfile.mkdtemp(prefix="superc-serve-smoke-")
    sock = os.path.join(tmp, "serve.sock")
    server = ParseServer(
        socket_path=sock, max_queue=2,
        optimization=args.optimization,
        cache_dir=os.path.join(tmp, "cache"),
        include_paths=tuple(args.include),
        extra_definitions=parse_defines(args.define) or None).start()
    try:
        with connect(f"unix:{sock}") as session:
            client = session.transport  # pipelined submit/drain below
            first = session.parse(unit).record
            expect(first["status"] in ("ok", "degraded"),
                   f"first parse usable (status={first['status']})")
            expect(first["cache"] == "miss", "first parse is a miss")
            second = session.parse(unit).record
            expect(second["cache"] == "hit",
                   "second identical request is a cache hit")
            expect(second["serve"]["seconds"]
                   <= max(0.005, first["serve"]["seconds"]),
                   "warm hit is not slower than the cold parse")
            stats = session.stats()
            expect(stats["cache_hits"] >= 1,
                   "cache_hits counter advanced")

            if header:
                # Overlay edit: changed header content, so the units
                # whose read-set holds it are demoted and a real
                # re-parse is forced (a plain invalidate of unchanged
                # content would legitimately re-hit the cache).
                with open(header, "r", encoding="utf-8") as handle:
                    header_text = handle.read()
                response = session.invalidate(
                    header,
                    text=header_text + "\n#define SERVE_SMOKE_EDIT 1\n")
                expect(response["status"] == "ok"
                       and unit in response["invalidated"],
                       f"invalidate({header}) drops the dependent "
                       f"unit")
                third = session.parse(unit).record
                expect(third["cache"] == "miss",
                       "edited header forces a real re-parse")
                expect(third["status"] in ("ok", "degraded"),
                       "re-parse after invalidate is usable")

            # Over-depth burst: the first request sleeps, the rest
            # pile up behind it; with max_queue=2 at least one must be
            # shed instead of queueing without bound.
            ids = [client.submit("parse", path=unit, delay=0.5,
                                 fresh=True)]
            ids += [client.submit("parse", path=unit, fresh=True)
                    for _ in range(6)]
            burst = client.drain(ids)
            statuses = [response["status"] for response in burst]
            expect(any(status == "shed" for status in statuses),
                   f"over-depth burst sheds "
                   f"({statuses.count('shed')}/{len(statuses)} shed)")
            expect(all(status in ("ok", "degraded", "shed")
                       for status in statuses),
                   "burst responses are served or shed, never lost")

            response = session.shutdown()
            expect(response["status"] == "ok",
                   f"shutdown drains cleanly "
                   f"(drained={response.get('drained')})")
        expect(server.wait(10.0), "server stopped after drain")
    except AssertionError as error:
        print("\n".join(checks))
        print(f"serve-smoke: FAILED — {error}", file=sys.stderr)
        return 1
    finally:
        server.close()
    print("\n".join(checks))
    print("serve-smoke: all checks passed")
    return 0


def _strip_volatile(record: dict) -> dict:
    """A response record minus per-request fields, for cross-transport
    equality checks."""
    return {key: value for key, value in record.items()
            if key not in ("id", "serve")}


def run_http_smoke(args) -> int:
    """The HTTP frontend contract: one daemon, two transports, one
    warm cache."""
    import http.client as httplib

    from repro.serve import ParseServer, connect

    unit = args.http_smoke
    if not os.path.isfile(unit):
        print(f"error: cannot read {unit}", file=sys.stderr)
        return 2
    checks: List[str] = []

    def expect(condition: bool, label: str) -> None:
        status = "ok" if condition else "FAIL"
        checks.append(f"  [{status}] {label}")
        if not condition:
            raise AssertionError(label)

    tmp = tempfile.mkdtemp(prefix="superc-http-smoke-")
    sock = os.path.join(tmp, "serve.sock")
    server = ParseServer(
        socket_path=sock, http_port=0, max_queue=16,
        optimization=args.optimization,
        cache_dir=os.path.join(tmp, "cache"),
        include_paths=tuple(args.include),
        extra_definitions=parse_defines(args.define) or None).start()
    try:
        host, port = server.http_address
        expect(server.http.url.startswith("http://"),
               f"daemon serves socket + HTTP ({server.http.url})")

        with connect(server.http.url) as session:
            # Raw-wire checks first: healthz and framing, the way a
            # load balancer or curl sees them.
            raw = httplib.HTTPConnection(host, port, timeout=30)
            raw.request("GET", "/healthz")
            health = raw.getresponse()
            health_body = json.loads(health.read().decode("utf-8"))
            expect(health.status == 200
                   and health_body["status"] == "ok",
                   "GET /healthz answers 200 while serving")
            raw.request("GET", "/v1/nope")
            lost = raw.getresponse()
            lost.read()
            expect(lost.status == 404, "unknown route answers 404")
            raw.request("POST", "/v1/stats", body=b"{}")
            wrong = raw.getresponse()
            wrong.read()
            expect(wrong.status == 405,
                   "wrong method on a known route answers 405")
            raw.close()

            first = session.parse(unit).record
            expect(first["status"] in ("ok", "degraded"),
                   f"HTTP parse usable (status={first['status']})")
            expect(first["cache"] == "miss",
                   "first HTTP parse is a miss")
            second = session.parse(unit).record
            expect(second["cache"] == "hit",
                   "HTTP re-parse is a warm cache hit")

            # The acceptance check: the socket client must see the
            # same record for the same unit — same warm cache, same
            # envelope, different framing only.
            with connect(f"unix:{sock}") as socket_session:
                via_socket = socket_session.parse(unit).record
            expect(via_socket["cache"] == "hit",
                   "socket transport hits the cache HTTP warmed")
            expect(_strip_volatile(via_socket)
                   == _strip_volatile(second),
                   "socket and HTTP answer identical records")

            response = session.invalidate(unit)
            expect(response["status"] == "ok",
                   f"HTTP invalidate ok "
                   f"(count={response.get('count')})")
            stats = session.stats()
            expect(stats["requests"] >= 4
                   and stats["cache_hits"] >= 2,
                   f"stats over HTTP see both transports "
                   f"(requests={stats['requests']}, "
                   f"hits={stats['cache_hits']})")

            response = session.shutdown()
            expect(response["status"] == "ok",
                   f"shutdown over HTTP drains cleanly "
                   f"(drained={response.get('drained')})")
        expect(server.wait(10.0), "server stopped after drain")
    except AssertionError as error:
        print("\n".join(checks))
        print(f"http-smoke: FAILED — {error}", file=sys.stderr)
        return 1
    finally:
        server.close()
    print("\n".join(checks))
    print("http-smoke: all checks passed")
    return 0


def run_chaos_smoke(args) -> int:
    """Fault-tolerance contract under a seeded chaos plan.

    One fault of each kind is armed against a live pooled daemon (the
    HTTP-site faults against its HTTP frontend); the assertion after
    every one is the same: the next request is still answered
    correctly.  Then the daemon is hard-killed (no drain) and a fresh
    one on the same cache directory must resume warm-tier
    short-circuiting from the journal — verified through ``http://``."""
    from repro import chaos
    from repro.serve import ParseServer, PoolConfig, connect

    unit = args.chaos_smoke
    if not os.path.isfile(unit):
        print(f"error: cannot read {unit}", file=sys.stderr)
        return 2
    checks: List[str] = []

    def expect(condition: bool, label: str) -> None:
        status = "ok" if condition else "FAIL"
        checks.append(f"  [{status}] {label}")
        if not condition:
            raise AssertionError(label)

    tmp = tempfile.mkdtemp(prefix="superc-chaos-smoke-")
    cache_dir = os.path.join(tmp, "cache")
    pool_config = PoolConfig(size=2, heartbeat_seconds=0.2)

    def make_server(name: str) -> "ParseServer":
        return ParseServer(
            socket_path=os.path.join(tmp, name), http_port=0,
            max_queue=16, workers=2, pool_config=pool_config,
            optimization=args.optimization, cache_dir=cache_dir,
            include_paths=tuple(args.include),
            extra_definitions=parse_defines(args.define) or None)

    plan = chaos.install(chaos.FaultPlan(seed=8))
    server = make_server("serve.sock").start()
    restarted = None
    try:
        with connect(f"unix:{server.socket_path}") as session:
            first = session.parse(unit).record
            expect(first["status"] in ("ok", "degraded"),
                   f"baseline parse usable (status={first['status']})")

            # 1. Worker crash mid-request: the supervisor reaps the
            # dead worker, restarts one under backoff, and the pool's
            # one-shot retry still answers this very request.
            plan.arm("pool.request", "worker-crash")
            crashed = session.parse(unit, fresh=True).record
            expect(crashed["status"] in ("ok", "degraded"),
                   "request survives its worker crashing")
            pool_stats = session.stats()["pool"]
            expect(pool_stats["crashes"] >= 1
                   and pool_stats["restarts"] >= 1,
                   f"supervisor reaped and restarted "
                   f"(crashes={pool_stats['crashes']}, "
                   f"restarts={pool_stats['restarts']})")

            # 2. Parse hang past its deadline: the supervisor SIGKILLs
            # the worker at the deadline and answers status=timeout;
            # the next request parses cleanly.
            plan.arm("pool.request", "worker-hang", seconds=30.0)
            hung = session.parse(unit, fresh=True,
                                 deadline=1.5).record
            expect(hung["status"] == "timeout",
                   f"hung worker killed at the deadline "
                   f"(status={hung['status']})")
            after = session.parse(unit, fresh=True).record
            expect(after["status"] in ("ok", "degraded"),
                   "clean parse right after the hang")

            # 3. Corrupt cache blob: invalidate demotes the memory
            # entry, the disk read hits the truncated blob, treats it
            # as a miss (deleting it), and the token tier still
            # short-circuits the re-parse.
            session.invalidate(unit)
            plan.arm("cache.get", "corrupt-blob")
            corrupt = session.parse(unit).record
            expect(corrupt["status"] in ("ok", "degraded"),
                   "request survives a corrupt cache blob")
            stats = session.stats()
            expect((stats["result_cache"] or {}).get("corrupt", 0) >= 1,
                   "corrupt blob detected, counted, and quarantined")

            # 4. Dropped client socket mid-response: the server-side
            # chaos hook closes the socket under the sender; the
            # client reconnects with backoff and resends.
            plan.arm("conn.send", "drop-conn")
            dropped = session.parse(unit).record
            expect(dropped["status"] in ("ok", "degraded"),
                   "client reconnects through a dropped socket")

            # 5. ENOSPC on the cache write: publishing is best-effort,
            # the parse result still comes back.
            plan.arm("cache.put", "enospc")
            enospc = session.parse(unit, fresh=True).record
            expect(enospc["status"] in ("ok", "degraded"),
                   "parse survives ENOSPC on the cache write")

        # 6. Torn HTTP response body: the frontend sends a full
        # Content-Length but half the bytes, then hard-closes; the
        # HTTP client sees IncompleteRead, reconnects, and resends.
        with connect(server.http.url) as http_session:
            plan.arm("http.send", "torn-body")
            torn = http_session.parse(unit).record
            expect(torn["status"] in ("ok", "degraded"),
                   "HTTP client heals a torn response body")

        # 7. Hard kill (no drain, no shutdown) + restart on the same
        # cache directory: the journal must bring the warm tiers back,
        # observed through the restarted daemon's HTTP frontend.
        server.close()
        expect(server.wait(10.0), "daemon hard-stopped")
        restarted = make_server("serve2.sock").start()
        with connect(restarted.http.url) as session:
            resumed = session.parse(unit).record
            expect(resumed.get("cache") == "hit"
                   and resumed.get("tier") in ("disk", "token"),
                   f"first post-restart request (over HTTP) "
                   f"short-circuits (tier={resumed.get('tier')})")
            stats = session.stats()
            expect((stats["journal"] or {}).get("resumed", 0) > 0,
                   f"journal resumed "
                   f"{(stats['journal'] or {}).get('resumed')} "
                   f"warm entr(y/ies)")
            session.shutdown()
        expect(restarted.wait(10.0), "restarted daemon drained")

        fired = {entry["kind"] for entry in plan.log}
        wanted = {"worker-crash", "worker-hang", "corrupt-blob",
                  "drop-conn", "enospc", "torn-body"}
        expect(fired == wanted,
               f"all six fault kinds fired ({sorted(fired)})")
    except AssertionError as error:
        print("\n".join(checks))
        print(f"chaos-smoke: FAILED — {error}", file=sys.stderr)
        return 1
    finally:
        chaos.uninstall()
        server.close()
        if restarted is not None:
            restarted.close()
    print("\n".join(checks))
    print("chaos-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
