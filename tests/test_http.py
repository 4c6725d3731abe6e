"""Tests for the protocol core, the HTTP frontend, and the unified
remote-session client (``repro.serve.protocol`` / ``.http`` /
``.client``)."""

import http.client
import json
import os
import statistics
import time
import types

import pytest

from repro import chaos
from repro.api import Config, Session, is_result
from repro.engine.scheduler import CrashLoopBreaker
from repro.serve import (HttpTransport, ParseServer, ProtocolError,
                         RemoteSession, SocketTransport,
                         connect, parse_endpoint)
from repro.serve import protocol
from repro.serve.http import ROUTES
from repro.tools import serve_cli

FILES = {
    "include/shared.h": "#define SHARED 1\n",
    "a.c": "#include <shared.h>\nint a = SHARED;\n",
    "b.c": "int b = 2;\n",
}
INCLUDE_PATHS = ("include",)
EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


@pytest.fixture
def server(tmp_path):
    server = ParseServer(
        config=Config(files=dict(FILES),
                      include_paths=INCLUDE_PATHS),
        socket_path=str(tmp_path / "serve.sock"), http_port=0,
        max_queue=8, cache_dir=str(tmp_path / "cache")).start()
    yield server
    server.close()


def http_conn(server, timeout=30.0):
    host, port = server.http_address
    return http.client.HTTPConnection(host, port, timeout=timeout)


def roundtrip(conn, method, route, body=None):
    payload = (json.dumps(body).encode("utf-8")
               if body is not None else None)
    conn.request(method, route, body=payload,
                 headers={"Content-Type": "application/json"}
                 if payload is not None else {})
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


class TestProtocolCodec:
    def test_parse_request_roundtrip(self):
        wire = {"id": 7, "op": "parse", "path": "a.c", "fresh": True,
                "deadline": 2.5}
        request = protocol.decode_request(wire)
        assert isinstance(request, protocol.ParseRequest)
        assert request.id == 7 and request.path == "a.c"
        assert request.fresh and request.deadline == 2.5
        assert request.unit == "a.c"
        assert protocol.decode_request(request.to_wire()).to_wire() \
            == request.to_wire()

    def test_every_op_has_a_type_and_a_route(self):
        assert set(protocol.OPS) == set(protocol.REQUEST_TYPES)
        assert set(protocol.HTTP_ROUTES) == set(protocol.OPS)
        # The frontend's routing table is the same table, inverted.
        assert ROUTES == {(method, route): op
                          for op, (method, route)
                          in protocol.HTTP_ROUTES.items()}

    def test_unknown_op_raises_with_id(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request({"id": 3, "op": "nope"})
        assert err.value.request_id == 3

    def test_parse_needs_path_or_text(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request({"op": "parse"})

    def test_invalidate_needs_path(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request({"op": "invalidate"})

    def test_mistyped_fields_raise(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request({"op": "parse", "path": 7})
        with pytest.raises(ProtocolError):
            protocol.decode_request({"op": "parse", "text": "x",
                                     "deadline": "soon"})

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(["op", "parse"])

    def test_http_status_mapping(self):
        codes = {status: protocol.http_status(status)
                 for status in protocol.STATUSES}
        assert codes == {"ok": 200, "degraded": 200,
                         "parse-failed": 422, "error": 422,
                         "shed": 429, "timeout": 504, "crashed": 503,
                         "unavailable": 503}
        assert protocol.http_status("???") == 500
        assert protocol.http_status(None) == 500

    def test_unavailable_reply_shape(self):
        reply = protocol.unavailable_reply("parse", 3, "boom")
        assert reply["status"] == "unavailable"
        assert reply["attempts"] == 3
        assert "after 3 attempts" in reply["error"]


class TestHttpFrontend:
    def test_framing_and_keepalive(self, server):
        conn = http_conn(server)
        code, first = roundtrip(conn, "POST", "/v1/parse",
                                {"id": 1, "path": "a.c"})
        assert code == 200 and first["cache"] == "miss"
        # Same connection, second request: keep-alive framing held.
        code, second = roundtrip(conn, "POST", "/v1/parse",
                                 {"id": 2, "path": "a.c"})
        assert code == 200 and second["cache"] == "hit"
        assert second["id"] == 2 and second["op"] == "parse"
        conn.close()

    def test_status_code_mapping_end_to_end(self, server):
        conn = http_conn(server)
        # An unreadable path is the request's fault: 422.
        code, body = roundtrip(conn, "POST", "/v1/parse",
                               {"path": "gone.c"})
        assert code == 422 and body["status"] == "error"
        # A request failing protocol validation: 400.
        code, body = roundtrip(conn, "POST", "/v1/parse", {})
        assert code == 400 and body["status"] == "error"
        # Routing problems: 404 unknown, 405 wrong method.
        code, _body = roundtrip(conn, "GET", "/v1/nope")
        assert code == 404
        code, _body = roundtrip(conn, "POST", "/v1/stats", {})
        assert code == 405
        conn.close()

    def test_post_without_body_is_411(self, server):
        # http.client adds Content-Length: 0 through request(); build
        # the headerless POST by hand to hit the framing check.
        conn = http_conn(server)
        conn.putrequest("POST", "/v1/parse")
        conn.endheaders()
        response = conn.getresponse()
        response.read()
        assert response.status == 411
        conn.close()

    def test_shed_maps_to_429(self, tmp_path):
        # Depth-0 admission sheds every parse — deterministically, and
        # without tearing the daemon down the way a drain would.
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            socket_path=str(tmp_path / "shed.sock"), http_port=0,
            max_queue=0, cache_dir=str(tmp_path / "cache")).start()
        try:
            conn = http_conn(server)
            code, body = roundtrip(conn, "POST", "/v1/parse",
                                   {"path": "a.c"})
            assert code == 429 and body["status"] == "shed"
            assert "queue depth" in body["error"]
            conn.close()
        finally:
            server.close()

    def test_stats_and_ping_over_http(self, server):
        conn = http_conn(server)
        code, body = roundtrip(conn, "GET", "/v1/ping")
        assert code == 200 and body["protocol"] == \
            protocol.PROTOCOL_VERSION
        code, body = roundtrip(conn, "GET", "/v1/stats")
        assert code == 200 and "requests" in body["stats"]
        conn.close()

    def test_healthz_flips_with_breaker(self, server):
        conn = http_conn(server)
        code, body = roundtrip(conn, "GET", "/healthz")
        assert code == 200 and body["status"] == "ok"
        # Trip a crash-loop breaker: the daemon still answers (inline
        # degraded mode) but advertises itself unhealthy to balancers.
        breaker = CrashLoopBreaker(1)
        breaker.failure()
        server.service.pool = types.SimpleNamespace(breaker=breaker)
        code, body = roundtrip(conn, "GET", "/healthz")
        assert code == 503 and body["breaker_open"]
        assert body["status"] == "unavailable"
        breaker.reset()
        code, body = roundtrip(conn, "GET", "/healthz")
        assert code == 200 and body["status"] == "ok"
        conn.close()


    def test_warm_hit_is_not_held_back_by_nagle(self, tmp_path):
        # The reply's headers and body are separate writes; with Nagle
        # on, a keep-alive hit waited about 40 ms for a delayed ACK.
        files = {}
        for name in ("mousedev.c", "include/major.h"):
            with open(os.path.join(EXAMPLES, name)) as handle:
                files[name] = handle.read()
        server = ParseServer(
            config=Config(files=files, include_paths=INCLUDE_PATHS),
            socket_path=str(tmp_path / "nagle.sock"), http_port=0,
            cache_dir=str(tmp_path / "cache")).start()
        try:
            conn = http_conn(server)
            code, body = roundtrip(conn, "POST", "/v1/parse",
                                   {"path": "mousedev.c"})
            assert code == 200 and body["cache"] == "miss"
            hits = []
            for _ in range(20):
                start = time.perf_counter()
                code, body = roundtrip(conn, "POST", "/v1/parse",
                                       {"path": "mousedev.c"})
                hits.append(time.perf_counter() - start)
                assert code == 200 and body["cache"] == "hit"
            conn.close()
            assert statistics.median(hits) < 0.010
        finally:
            server.close()


class TestSharedWarmCache:
    def test_second_transport_first_request_hits(self, server):
        with connect(f"unix:{server.socket_path}") as via_socket, \
                connect(server.http.url) as via_http:
            cold = via_socket.parse("a.c").record
            assert cold["cache"] == "miss"
            # The HTTP transport's *first* request rides the warm
            # cache the socket client just filled — one state, two
            # frontends.
            warm = via_http.parse("a.c").record
            assert warm["cache"] == "hit"
            # And back the other way on a different unit.
            assert via_http.parse("b.c").record["cache"] == "miss"
            assert via_socket.parse("b.c").record["cache"] == "hit"

    def test_transports_answer_identical_records(self, server):
        with connect(f"unix:{server.socket_path}") as via_socket, \
                connect(server.http.url) as via_http:
            via_socket.parse("a.c")
            one = via_socket.parse("a.c").record
            two = via_http.parse("a.c").record
            volatile = ("id", "serve")
            assert {k: v for k, v in one.items()
                    if k not in volatile} \
                == {k: v for k, v in two.items() if k not in volatile}


class TestEndpointUrls:
    def test_unix_forms(self):
        assert parse_endpoint("unix:/tmp/s.sock") \
            == ("unix", "/tmp/s.sock")
        assert parse_endpoint("unix:///tmp/s.sock") \
            == ("unix", "/tmp/s.sock")
        assert parse_endpoint("/tmp/s.sock") == ("unix", "/tmp/s.sock")

    def test_tcp_forms(self):
        assert parse_endpoint("tcp:127.0.0.1:7433") \
            == ("tcp", "127.0.0.1", 7433)
        assert parse_endpoint("tcp://127.0.0.1:7433") \
            == ("tcp", "127.0.0.1", 7433)
        assert parse_endpoint("tcp::7433") == ("tcp", "127.0.0.1", 7433)

    def test_http_forms(self):
        assert parse_endpoint("http://127.0.0.1:8080") \
            == ("http", "127.0.0.1", 8080)
        assert parse_endpoint("http://localhost") \
            == ("http", "localhost", 80)
        assert parse_endpoint("http://127.0.0.1:0") \
            == ("http", "127.0.0.1", 0)

    def test_rejects_garbage(self):
        for bad in ("", "unix:", "tcp:nohost", "https://x:1",
                    "ftp://x", "http://"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)

    def test_connect_picks_the_transport(self):
        assert isinstance(connect("unix:/tmp/s.sock"), RemoteSession)
        assert isinstance(connect("unix:/tmp/s.sock").transport,
                          SocketTransport)
        assert isinstance(connect("tcp:127.0.0.1:1").transport,
                          SocketTransport)
        assert isinstance(connect("http://127.0.0.1:1").transport,
                          HttpTransport)

    def test_connect_options_reach_the_transport(self):
        session = connect("http://127.0.0.1:1", timeout=3.5, retries=0)
        assert session.transport.timeout == 3.5
        assert session.transport.retries == 0


class TestRemoteSessionParity:
    def test_result_protocol_matches_local_session(self, server):
        local = Session(files=dict(FILES),
                        include_paths=INCLUDE_PATHS).parse_file("a.c")
        with connect(server.http.url) as session:
            remote = session.parse_file("a.c")
        assert is_result(local) and is_result(remote)
        assert remote.status == local.status == "ok"
        assert remote.ok and not remote.degraded
        assert remote.timing is not None
        assert remote.diagnostics == []

    def test_parse_text_over_http(self, server):
        with connect(server.http.url) as session:
            result = session.parse(text="int q = 1;\n",
                                   filename="buf.c")
        assert result.ok and result.record["unit"] == "buf.c"

    def test_unavailable_is_structured_not_raised(self, tmp_path):
        session = connect(f"unix:{tmp_path}/nope.sock", retries=1,
                          backoff_base=0.0)
        result = session.parse("a.c")
        assert result.status == "unavailable"
        assert result.record["attempts"] == 2

    def test_http_unavailable_is_structured(self):
        # Nothing listens on a fresh ephemeral port the OS just freed.
        import socket as socketlib
        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        session = connect(f"http://127.0.0.1:{port}", retries=1,
                          backoff_base=0.0)
        result = session.parse("a.c")
        assert result.status == "unavailable"


class TestHttpChaos:
    def test_torn_body_heals_through_retry(self, server):
        plan = chaos.FaultPlan(seed=1)
        with chaos.injected(plan):
            with connect(server.http.url, backoff_base=0.0) as session:
                session.parse("a.c")
                plan.arm("http.send", "torn-body")
                healed = session.parse("a.c").record
        assert healed["status"] == "ok"
        assert plan.fired("torn-body") == 1

    def test_drop_conn_at_http_site(self, server):
        plan = chaos.FaultPlan(seed=1)
        with chaos.injected(plan):
            with connect(server.http.url, backoff_base=0.0) as session:
                plan.arm("http.send", "drop-conn")
                dropped = session.parse("a.c").record
        assert dropped["status"] == "ok"
        assert plan.fired("drop-conn") == 1


class TestDeprecationShims:
    def test_remote_session_is_the_undeprecated_path(self, server):
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", DeprecationWarning)
            with connect(f"unix:{server.socket_path}") as session:
                assert session.parse("a.c").ok


class TestCliListen:
    def test_usage_error_mentions_both_spellings(self, capsys):
        assert serve_cli.main([]) == 2
        err = capsys.readouterr().err
        assert "--listen" in err and "--connect" in err

    def test_conflicting_listeners_rejected(self, capsys):
        rc = serve_cli.main(["--listen", "unix:/tmp/a.sock",
                             "--listen", "tcp:127.0.0.1:0"])
        assert rc == 2
        assert "unix" in capsys.readouterr().err

    def test_duplicate_listener_kind_rejected(self, capsys):
        rc = serve_cli.main(["--listen", "unix:/tmp/a.sock",
                             "--listen", "unix:/tmp/b.sock"])
        assert rc == 2
        assert "multiple" in capsys.readouterr().err

    def test_client_with_connect_url(self, server, capsys):
        rc = serve_cli.main(["--connect", server.http.url,
                             "--parse", "a.c", "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["status"] == "ok"

    def test_listen_and_ops_conflict(self, capsys):
        rc = serve_cli.main(["--listen", "unix:/tmp/a.sock",
                             "--stats"])
        assert rc == 2
        assert "--connect" in capsys.readouterr().err
