"""Tests for the persistent parse service (``repro.serve``)."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import chaos
from repro.api import Config, is_result
from repro.cpp import DictFileSystem
from repro.engine import BatchEngine, CorpusJob, EngineConfig
from repro.engine.scheduler import backoff_delay
from repro.serve import (AdmissionQueue, Deadline, FileStore,
                         InvalidateRequest, ParseServer, ParseService,
                         PoolConfig, QueueClosed, STATUS_SHED,
                         STATUS_UNAVAILABLE, ServeError, ServerState,
                         SocketTransport, TIER_DISK, TIER_MEMORY,
                         TIER_TOKEN, connect, file_token_digest,
                         token_fingerprint)
from repro.serve.server import _QueuedRequest, _ResponseSlot

# A corpus with a header shared by exactly two of three units, plus a
# second-level header reached only through only_a.h — the shape the
# reverse-invalidation walk must get exactly right.
FILES = {
    "include/shared.h": "#define SHARED 1\n",
    "include/only_a.h": "#include <shared.h>\n#define ONLY_A 2\n",
    "a.c": "#include <only_a.h>\nint a = SHARED + ONLY_A;\n",
    "b.c": "#include <shared.h>\nint b = SHARED;\n",
    "c.c": "int c = 3;\n",
}
INCLUDE_PATHS = ("include",)
UNITS = ("a.c", "b.c", "c.c")


def make_state(tmp_path, files=None, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServerState(
        Config(files=dict(files or FILES),
               include_paths=INCLUDE_PATHS),
        **kwargs)


def counter(owner, name):
    """One value of the counters registry ``owner`` counts into."""
    return owner.counters.snapshot()[name]


def parse_unit(state, unit):
    text = state.files.read(unit)
    key = state.unit_key(unit, text)
    record, tier = state.lookup(unit, key)
    if record is None:
        record = state.parse(unit, text, key)
    return record, tier


class TestFileStore:
    def test_reads_are_cached_and_fingerprinted(self):
        store = FileStore(DictFileSystem(dict(FILES)))
        assert store.read("a.c") == FILES["a.c"]
        digest = store.digest("a.c")
        assert digest and len(digest) == 64
        # The base is not consulted again: mutate it and re-read.
        store.base.files["a.c"] = "int changed;\n"
        assert store.read("a.c") == FILES["a.c"]

    def test_invalidate_rereads_base(self):
        store = FileStore(DictFileSystem(dict(FILES)))
        store.read("a.c")
        store.base.files["a.c"] = "int changed;\n"
        assert store.invalidate("a.c")
        assert store.read("a.c") == "int changed;\n"
        assert not store.invalidate("nope.c")

    def test_put_overlays_without_touching_base(self):
        base = DictFileSystem(dict(FILES))
        store = FileStore(base)
        store.put("a.c", "int overlay;\n")
        assert store.read("a.c") == "int overlay;\n"
        assert base.read("a.c") == FILES["a.c"]

    def test_known_files_excludes_missing(self):
        store = FileStore(DictFileSystem(dict(FILES)))
        store.read("a.c")
        assert store.read("missing.h") is None
        known = store.known_files()
        assert "a.c" in known and "missing.h" not in known


class TestTokenFingerprint:
    def test_layout_edits_do_not_change_it(self):
        base = file_token_digest("int  x = 1;\n")
        assert base == file_token_digest("int x/*c*/ = 1;  // t\n")
        assert base == file_token_digest("\n\nint x\n  = 1;\n")

    def test_real_edits_change_it(self):
        assert file_token_digest("int x = 1;") \
            != file_token_digest("int x = 2;")

    def test_closure_membership_is_part_of_it(self):
        store = FileStore(DictFileSystem(dict(FILES)))
        one = token_fingerprint(store.read, "a.c",
                                ["include/only_a.h"])
        both = token_fingerprint(store.read, "a.c",
                                 ["include/only_a.h",
                                  "include/shared.h"])
        assert one != both

    def test_missing_member_is_stable(self):
        store = FileStore(DictFileSystem(dict(FILES)))
        first = token_fingerprint(store.read, "a.c", ["gone.h"])
        second = token_fingerprint(store.read, "a.c", ["gone.h"])
        assert first == second


class TestReadSetInvalidation:
    """``invalidate`` scans the read-sets the parses recorded: no
    include graph to rebuild or keep in step with the files."""

    def warm(self, tmp_path):
        state = make_state(tmp_path)
        for unit in UNITS:
            parse_unit(state, unit)
        return state

    def test_read_sets_hold_the_resolved_includes(self, tmp_path):
        state = self.warm(tmp_path)
        assert set(state.entries["a.c"].reads) == {
            "include/only_a.h", "include/shared.h"}
        assert set(state.entries["b.c"].reads) == {"include/shared.h"}
        assert state.entries["c.c"].reads == {}

    def test_affected_units_is_exact(self, tmp_path):
        state = self.warm(tmp_path)
        assert state.invalidate("include/shared.h") == ["a.c", "b.c"]
        assert state.invalidate("include/only_a.h") == ["a.c"]
        assert state.invalidate("c.c") == ["c.c"]

    def test_unknown_path_affects_nothing(self, tmp_path):
        state = self.warm(tmp_path)
        assert state.invalidate("include/none.h") == []


class TestAdmission:
    def test_fifo_and_depth_limit(self):
        queue = AdmissionQueue(max_depth=2)
        assert queue.submit("a") and queue.submit("b")
        assert not queue.submit("c")
        assert counter(queue, "shed") == 1
        assert queue.pop(0.01) == "a"
        assert queue.submit("c")  # a slot freed up
        assert queue.pop(0.01) == "b"

    def test_priority_bypasses_depth(self):
        queue = AdmissionQueue(max_depth=0)
        assert not queue.submit("work")
        assert queue.submit("control", priority=True)

    def test_drain_refuses_then_closes(self):
        queue = AdmissionQueue(max_depth=8)
        queue.submit("a")
        queue.begin_drain()
        assert not queue.submit("b")
        assert queue.pop(0.01) == "a"
        with pytest.raises(QueueClosed):
            queue.pop(0.01)

    def test_close_with_lands_sentinel_behind_backlog(self):
        queue = AdmissionQueue(max_depth=8)
        queue.submit("a")
        queue.close_with("sentinel")
        assert queue.pop(0.01) == "a"
        assert queue.pop(0.01) == "sentinel"
        with pytest.raises(QueueClosed):
            queue.pop(0.01)

    def test_deadline(self):
        assert not Deadline(0.0).enabled
        assert Deadline(0.0).remaining() == float("inf")
        expired = Deadline(0.001, start=time.monotonic() - 1.0)
        assert expired.expired()


class TestServerState:
    def test_miss_then_memory_hit(self, tmp_path):
        state = make_state(tmp_path)
        record, tier = parse_unit(state, "a.c")
        assert tier is None and record["status"] == "ok"
        record, tier = parse_unit(state, "a.c")
        assert tier == TIER_MEMORY
        assert counter(state, "parses") == 1

    def test_disk_hit_across_restart(self, tmp_path):
        state = make_state(tmp_path)
        parse_unit(state, "a.c")
        reborn = make_state(tmp_path)
        record, tier = parse_unit(reborn, "a.c")
        assert tier == TIER_DISK
        assert counter(reborn, "parses") == 0

    def test_layout_only_edit_token_short_circuits(self, tmp_path):
        state = make_state(tmp_path)
        first, _tier = parse_unit(state, "a.c")
        state.invalidate("include/shared.h",
                         text="#define SHARED 1  /* new comment */\n")
        record, tier = parse_unit(state, "a.c")
        assert tier == TIER_TOKEN
        assert counter(state, "parses") == 1
        assert record["status"] == first["status"]
        # The re-published key now answers from memory directly.
        _record, tier = parse_unit(state, "a.c")
        assert tier == TIER_MEMORY

    def test_semantic_edit_reparses(self, tmp_path):
        state = make_state(tmp_path)
        parse_unit(state, "a.c")
        state.invalidate("include/shared.h",
                         text="#define SHARED 42\n")
        _record, tier = parse_unit(state, "a.c")
        assert tier is None
        assert counter(state, "parses") == 2

    def test_invalidate_drops_exactly_the_dependents(self, tmp_path):
        state = make_state(tmp_path)
        for unit in UNITS:
            parse_unit(state, unit)
        assert counter(state, "parses") == 3
        dropped = state.invalidate("include/shared.h",
                                   text="#define SHARED 9\n")
        assert dropped == ["a.c", "b.c"]
        # c.c never left the memory tier; a.c and b.c re-parse.
        _record, tier = parse_unit(state, "c.c")
        assert tier == TIER_MEMORY
        for unit in ("a.c", "b.c"):
            _record, tier = parse_unit(state, unit)
            assert tier is None, unit
        assert counter(state, "parses") == 5

    def test_second_level_header_only_hits_its_chain(self, tmp_path):
        state = make_state(tmp_path)
        for unit in UNITS:
            parse_unit(state, unit)
        dropped = state.invalidate("include/only_a.h",
                                   text="#define ONLY_A 7\n")
        assert dropped == ["a.c"]

    def test_serve_warms_the_batch_engine(self, tmp_path):
        """Daemon and superc-batch share one on-disk result cache."""
        state = make_state(tmp_path)
        for unit in UNITS:
            parse_unit(state, unit)
        job = CorpusJob(list(UNITS), include_paths=list(INCLUDE_PATHS),
                        files=dict(FILES))
        config = EngineConfig(cache_dir=str(tmp_path / "cache"))
        report = BatchEngine(config).run(job)
        assert report.cache_hits == len(UNITS)

    def test_batch_warms_the_server(self, tmp_path):
        job = CorpusJob(list(UNITS), include_paths=list(INCLUDE_PATHS),
                        files=dict(FILES))
        config = EngineConfig(cache_dir=str(tmp_path / "cache"))
        BatchEngine(config).run(job)
        state = make_state(tmp_path)
        for unit in UNITS:
            _record, tier = parse_unit(state, unit)
            assert tier == TIER_DISK, unit
        assert counter(state, "parses") == 0

    def test_unknown_optimization_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_state(tmp_path, optimization="nope")

    def test_stats_shape(self, tmp_path):
        state = make_state(tmp_path)
        parse_unit(state, "a.c")
        stats = ParseService(state).handle({"op": "stats"})["stats"]
        assert stats["units_warm"] == 1
        assert stats["parses"] == 1
        assert stats["result_cache"]["misses"] >= 1
        json.dumps(stats)  # JSON-serializable


class TestParseService:
    def service(self, tmp_path):
        return ParseService(make_state(tmp_path))

    def test_parse_response_is_a_result_record(self, tmp_path):
        service = self.service(tmp_path)
        response = service.handle({"id": 7, "op": "parse",
                                   "path": "a.c"})
        assert response["id"] == 7
        assert response["status"] == "ok"
        assert response["cache"] == "miss"
        for key in ("timing", "diagnostics", "profile", "unit"):
            assert key in response
        from repro.engine import UnitResult
        assert is_result(UnitResult(response))

    def test_second_parse_hits(self, tmp_path):
        service = self.service(tmp_path)
        service.handle({"op": "parse", "path": "a.c"})
        response = service.handle({"op": "parse", "path": "a.c"})
        assert response["cache"] == "hit"
        assert response["tier"] == TIER_MEMORY
        assert counter(service, "cache_hits") == 1

    def test_fresh_bypasses_the_caches(self, tmp_path):
        service = self.service(tmp_path)
        service.handle({"op": "parse", "path": "a.c"})
        response = service.handle({"op": "parse", "path": "a.c",
                                   "fresh": True})
        assert response["cache"] == "miss"

    def test_parse_text_buffer(self, tmp_path):
        service = self.service(tmp_path)
        response = service.handle({"op": "parse", "text": "int x;",
                                   "filename": "<buffer>"})
        assert response["status"] == "ok"
        assert response["unit"] == "<buffer>"

    def test_bad_requests_are_confined(self, tmp_path):
        service = self.service(tmp_path)
        assert service.handle({"op": "nope"})["status"] == "error"
        assert service.handle({"op": "parse"})["status"] == "error"
        assert service.handle({"op": "parse", "path": "gone.c"
                               })["status"] == "error"
        assert service.handle({"op": "invalidate"})["status"] == "error"

    def test_invalidate_reports_dropped_units(self, tmp_path):
        service = self.service(tmp_path)
        for unit in UNITS:
            service.handle({"op": "parse", "path": unit})
        response = service.handle({"op": "invalidate",
                                   "path": "include/shared.h",
                                   "text": "#define SHARED 5\n"})
        assert response["status"] == "ok"
        assert response["invalidated"] == ["a.c", "b.c"]
        assert response["count"] == 2

    def test_stats_op(self, tmp_path):
        service = self.service(tmp_path)
        service.handle({"op": "parse", "path": "a.c"})
        response = service.handle({"op": "stats"})
        assert response["status"] == "ok"
        assert response["stats"]["requests"] == 2

    def test_tracer_counters(self, tmp_path):
        from repro.obs import Tracer
        tracer = Tracer()
        service = ParseService(make_state(tmp_path), tracer=tracer)
        service.handle({"op": "parse", "path": "a.c"})
        service.handle({"op": "parse", "path": "a.c"})
        assert counter(service, "requests") == 2
        assert counter(service, "cache_misses") == 1
        assert counter(service, "cache_hits") == 1
        roots = [span.name for span in tracer.roots]
        assert roots == ["serve.request", "serve.request"]


@pytest.fixture
def running_server(tmp_path):
    """A ParseServer on a real Unix socket, torn down after the test."""
    sock = str(tmp_path / "serve.sock")
    server = ParseServer(
        config=Config(files=dict(FILES), include_paths=INCLUDE_PATHS),
        socket_path=sock, max_queue=2,
        cache_dir=str(tmp_path / "cache")).start()
    try:
        yield server, sock
    finally:
        server.close()


class TestParseServerEndToEnd:
    def test_parse_hit_invalidate_shutdown(self, running_server):
        server, sock = running_server
        with SocketTransport(socket_path=sock) as client:
            assert client.ping()["status"] == "ok"
            first = client.parse("a.c")
            assert first.ok and first.record["cache"] == "miss"
            assert is_result(first)
            second = client.parse("a.c")
            assert second.record["cache"] == "hit"
            response = client.invalidate("include/shared.h",
                                         text="#define SHARED 4\n")
            assert response["invalidated"] == ["a.c"]
            third = client.parse("a.c")
            assert third.ok and third.record["cache"] == "miss"
            stats = client.stats()
            assert stats["cache_hits"] == 1
            assert stats["requests"] >= 4
            result = client.shutdown()
            assert result["status"] == "ok"
            assert result["drained"] >= 4
        assert server.wait(10.0)

    def test_burst_sheds_beyond_queue_depth(self, running_server):
        server, sock = running_server
        with SocketTransport(socket_path=sock) as client:
            client.parse("a.c")  # warm tables before timing matters
            ids = [client.submit("parse", path="a.c", delay=0.4,
                                 fresh=True)]
            ids += [client.submit("parse", path="a.c", fresh=True)
                    for _ in range(6)]
            responses = client.drain(ids)
        statuses = [response["status"] for response in responses]
        assert statuses.count(STATUS_SHED) >= 1
        assert all(status in ("ok", "degraded", STATUS_SHED)
                   for status in statuses)
        shed = [response for response in responses
                if response["status"] == STATUS_SHED]
        assert all("queue depth" in response["error"]
                   for response in shed)
        assert counter(server.queue, "shed") >= 1

    def test_queue_expired_deadline_times_out(self, running_server):
        server, sock = running_server
        with SocketTransport(socket_path=sock) as client:
            slow = client.submit("parse", path="a.c", delay=0.4)
            doomed = client.submit("parse", path="b.c", deadline=0.05)
            responses = client.drain([slow, doomed])
        assert responses[0]["status"] in ("ok", "degraded")
        assert responses[1]["status"] == "timeout"
        assert "deadline" in responses[1]["error"]

    def test_deadline_never_cuts_an_invalidation(self, tmp_path,
                                                 monkeypatch):
        """A daemon without a pool serves a started request in full,
        on the main thread too: an edit that outlasts its deadline
        still demotes the header's readers, so the next parse of one
        is a miss, never a stale memory hit."""
        assert threading.current_thread() is threading.main_thread()
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            cache_dir=str(tmp_path / "cache"))
        try:
            warm = server.service.handle({"op": "parse", "path": "b.c"})
            assert warm["cache"] == "miss"
            put = FileStore.put

            def slow_put(store, path, text):
                put(store, path, text)
                time.sleep(0.2)

            monkeypatch.setattr(FileStore, "put", slow_put)
            slot = _ResponseSlot()
            server._serve_one(_QueuedRequest(
                InvalidateRequest("include/shared.h",
                                  text="#define SHARED 4\n"),
                slot, Deadline(0.05)))
            assert slot.response["status"] == "ok"
            assert slot.response["invalidated"] == ["b.c"]
            assert not server.state.entries["b.c"].key
            again = server.service.handle({"op": "parse", "path": "b.c"})
            assert again["cache"] == "miss"
        finally:
            server.close()

    def test_shutdown_drains_pipelined_requests(self, tmp_path):
        sock = str(tmp_path / "drain.sock")
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            socket_path=sock, max_queue=16,
            cache_dir=str(tmp_path / "cache")).start()
        try:
            with SocketTransport(socket_path=sock) as client:
                ids = [client.submit("parse", path=unit)
                       for unit in UNITS]
                shutdown_id = client.submit("shutdown")
                responses = client.drain(ids + [shutdown_id])
            for response in responses[:-1]:
                assert response["status"] in ("ok", "degraded")
            assert responses[-1]["status"] == "ok"
            assert responses[-1]["drained"] == len(UNITS)
            assert server.wait(10.0)
        finally:
            server.close()

    def test_requests_after_shutdown_are_shed(self, running_server):
        server, sock = running_server
        with SocketTransport(socket_path=sock) as client:
            slow = client.submit("parse", path="a.c", delay=0.3)
            shutdown_id = client.submit("shutdown")
            late = client.submit("parse", path="b.c")
            late_response = client.wait_for(late)
            assert late_response["status"] == STATUS_SHED
            assert late_response["error"] == "draining"
            assert client.wait_for(slow)["status"] in ("ok", "degraded")
            assert client.wait_for(shutdown_id)["status"] == "ok"

    def test_tcp_transport(self, tmp_path):
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            port=0, cache_dir=str(tmp_path / "cache")).start()
        try:
            host, port = server.address
            with SocketTransport(host=host, port=port) as client:
                assert client.parse("c.c").ok
                assert client.shutdown()["status"] == "ok"
            assert server.wait(10.0)
        finally:
            server.close()

    def test_connect_failure_raises_serve_error(self, tmp_path):
        client = SocketTransport(socket_path=str(tmp_path / "nope.sock"))
        with pytest.raises(ServeError):
            client.connect()


class TestAdmissionRaces:
    """Concurrency contracts of the admission queue: nothing admitted
    is ever lost, nothing shed is ever served, and the shutdown
    sentinel always lands last — under racing producers."""

    PRODUCERS = 8
    PER_PRODUCER = 50

    def _run_race(self, queue, submit_barrier=None):
        accepted = [[] for _ in range(self.PRODUCERS)]
        shed = [0] * self.PRODUCERS

        def produce(index):
            if submit_barrier is not None:
                submit_barrier.wait()
            for sequence in range(self.PER_PRODUCER):
                item = (index, sequence)
                if queue.submit(item):
                    accepted[index].append(item)
                else:
                    shed[index] += 1
        threads = [threading.Thread(target=produce, args=(index,))
                   for index in range(self.PRODUCERS)]
        for thread in threads:
            thread.start()
        return threads, accepted, shed

    def test_concurrent_producers_during_drain(self):
        """Producers race ``close_with``: every accepted item is popped
        exactly once before QueueClosed, and the sentinel is last."""
        queue = AdmissionQueue(max_depth=10_000)
        barrier = threading.Barrier(self.PRODUCERS + 1)
        threads, accepted, shed = self._run_race(queue, barrier)
        barrier.wait()          # all producers mid-flight…
        queue.close_with("SENTINEL")
        for thread in threads:
            thread.join()
        popped = []
        with pytest.raises(QueueClosed):
            while True:
                popped.append(queue.pop(timeout=0.5))
        assert popped[-1] == "SENTINEL", \
            "the shutdown sentinel must drain last"
        served = popped[:-1]
        flat_accepted = [item for items in accepted for item in items]
        # Conservation: accepted == served (exactly once), and
        # accepted + shed == every submit attempted.
        assert sorted(served) == sorted(flat_accepted)
        assert len(served) == len(set(served))
        assert len(flat_accepted) + sum(shed) \
            == self.PRODUCERS * self.PER_PRODUCER

    def test_shed_vs_pop_ordering_and_conservation(self):
        """With a consumer racing a tiny queue, every item is either
        served in per-producer FIFO order or shed — never both, never
        lost."""
        queue = AdmissionQueue(max_depth=4)
        popped = []
        done = threading.Event()

        def consume():
            while True:
                try:
                    item = queue.pop(timeout=0.2)
                except QueueClosed:
                    return
                if item is None:
                    if done.is_set():
                        # Producers finished; drain the tail.
                        queue.begin_drain()
                    continue
                popped.append(item)
        consumer = threading.Thread(target=consume)
        consumer.start()
        threads, accepted, shed = self._run_race(queue)
        for thread in threads:
            thread.join()
        done.set()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        flat_accepted = [item for items in accepted for item in items]
        assert sorted(popped) == sorted(flat_accepted), \
            "served set must be exactly the accepted set"
        assert counter(queue, "shed") == sum(shed)
        assert counter(queue, "submitted") == len(flat_accepted)
        # FIFO per producer: each producer's surviving sequence
        # numbers come out in submission order.
        for index in range(self.PRODUCERS):
            sequences = [sequence for (producer, sequence) in popped
                         if producer == index]
            assert sequences == sorted(sequences)

    def test_queue_wait_counts_against_deadline(self, running_server):
        """A request whose whole budget is eaten by queue wait is
        answered ``timeout`` without being parsed (the Deadline starts
        at admission, not at pop)."""
        server, sock = running_server
        with SocketTransport(socket_path=sock) as client:
            client.parse("a.c")  # warm up so delay dominates
            baseline = counter(server.state, "parses")
            slow = client.submit("parse", path="a.c", delay=0.4,
                                 fresh=True)
            doomed = client.submit("parse", path="b.c", deadline=0.05)
            responses = client.drain([slow, doomed])
        assert responses[0]["status"] in ("ok", "degraded")
        assert responses[1]["status"] == "timeout"
        assert "in queue" in responses[1]["error"], \
            "the timeout must be attributed to queue wait"
        assert counter(server.state, "parses") == baseline + 1, \
            "the expired request must not have been parsed"


class TestClientRetry:
    def test_unavailable_after_retry_budget(self, tmp_path):
        client = SocketTransport(socket_path=str(tmp_path / "nope.sock"),
                             retries=2, backoff_base=0.001)
        response = client.request("stats")
        assert response["status"] == STATUS_UNAVAILABLE
        assert response["attempts"] == 3
        assert "cannot connect" in response["error"]

    def test_zero_retries_still_structured(self, tmp_path):
        client = SocketTransport(socket_path=str(tmp_path / "nope.sock"),
                             retries=0)
        response = client.request("ping")
        assert response["status"] == STATUS_UNAVAILABLE
        assert response["attempts"] == 1

    def test_backoff_is_deterministic_and_bounded(self, tmp_path):
        kwargs = dict(socket_path=str(tmp_path / "sock"),
                      backoff_base=0.05, backoff_max=0.4,
                      backoff_jitter=0.5, backoff_seed=3)
        one = SocketTransport(**kwargs)
        two = SocketTransport(**kwargs)
        delays = [backoff_delay(one, n) for n in range(1, 6)]
        assert delays == [backoff_delay(two, n) for n in range(1, 6)]
        assert all(delay <= 0.4 * 1.5 for delay in delays), \
            "bounded by backoff_max plus jitter"
        assert delays[1] > delays[0], "exponential ramp"

    def test_reconnects_through_dropped_socket(self, running_server):
        """chaos drop-conn severs the connection mid-response; the
        client must reconnect, resend, and still get the answer."""
        server, sock = running_server
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            with SocketTransport(socket_path=sock,
                             backoff_base=0.01) as client:
                assert client.parse("c.c").ok
                plan.arm("conn.send", "drop-conn")
                result = client.parse("c.c")
                assert result.ok, \
                    "retry through the dropped socket must succeed"
        assert plan.fired("drop-conn") == 1

    def test_protocol_garbage_still_raises(self, tmp_path):
        """Only transport failures retry: a garbage response line is a
        bug, not a restart, and must surface immediately."""
        error = ServeError("bad response line", retryable=False)
        assert not error.retryable
        retryable = ServeError("receive failed", retryable=True)
        assert retryable.retryable


class TestPooledServer:
    """End-to-end over the supervised multi-process worker pool."""

    @staticmethod
    def pooled(tmp_path, name="pool.sock"):
        return ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            socket_path=str(tmp_path / name), http_port=0,
            max_queue=16, workers=2,
            pool_config=PoolConfig(size=2, heartbeat_seconds=0.2),
            cache_dir=str(tmp_path / "cache"))

    @pytest.fixture
    def pooled_server(self, tmp_path):
        server = self.pooled(tmp_path).start()
        try:
            yield server, server.socket_path
        finally:
            server.close()

    def test_parse_over_pool(self, pooled_server):
        server, sock = pooled_server
        with SocketTransport(socket_path=sock) as client:
            first = client.parse("a.c")
            assert first.ok and first.record["cache"] == "miss"
            assert is_result(first)
            second = client.parse("a.c")
            assert second.record["cache"] == "hit"
            stats = client.stats()
            assert stats["pool"]["alive"] >= 1
            assert stats["pool"]["spawns"] >= 2
            assert client.shutdown()["status"] == "ok"
        assert server.wait(10.0)

    def test_worker_crash_is_invisible_to_client(self, pooled_server):
        server, sock = pooled_server
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            with SocketTransport(socket_path=sock) as client:
                plan.arm("pool.request", "worker-crash")
                result = client.parse("b.c", fresh=True)
                assert result.ok
                stats = client.stats()
                assert stats["pool"]["crashes"] >= 1
                assert stats["pool"]["restarts"] >= 1
                client.shutdown()
        assert server.wait(10.0)

    def test_failed_replacement_fork_is_retried(self, pooled_server,
                                                monkeypatch):
        """A transient fork failure while replacing the crashed worker
        does not leave the pool short when the client is answered."""
        server, sock = pooled_server
        fork = os.fork
        failures = []

        def fork_failing_once_off_the_supervisor():
            if failures == ["armed"] and threading.current_thread().name \
                    != "serve-pool-supervisor":
                failures[0] = "fired"
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_failing_once_off_the_supervisor)
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            with SocketTransport(socket_path=sock) as client:
                plan.arm("pool.request", "worker-crash")
                failures.append("armed")
                result = client.parse("b.c", fresh=True)
                assert result.ok
                stats = client.stats()
                assert failures == ["fired"]
                assert stats["pool"]["crashes"] == 1
                assert stats["pool"]["restarts"] >= 1
                assert stats["pool"]["alive"] == 2
                client.shutdown()
        assert server.wait(10.0)

    def test_deadline_enforced_off_main_thread(self, pooled_server):
        """The pool supervisor enforces deadlines with select+SIGKILL,
        so they work on dispatcher threads where SIGALRM cannot."""
        server, sock = pooled_server
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            with SocketTransport(socket_path=sock) as client:
                plan.arm("pool.request", "worker-hang", seconds=30.0)
                hung = client.parse("c.c", fresh=True, deadline=0.8)
                assert hung.record["status"] == "timeout"
                clean = client.parse("c.c", fresh=True)
                assert clean.ok
                client.shutdown()
        assert server.wait(10.0)

    def test_default_deadline_forks_one_worker(self, tmp_path):
        """A deadline is cut only by killing a worker, so a daemon
        given a default deadline and no workers forks a pool of one;
        a hang past the deadline answers ``timeout`` and the
        replacement worker serves the next request."""
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            socket_path=str(tmp_path / "deadline.sock"),
            deadline_seconds=1.0,
            cache_dir=str(tmp_path / "cache")).start()
        try:
            assert server.pool is not None
            assert server.pool.population() == (1, 1)
            plan = chaos.FaultPlan()
            with chaos.injected(plan):
                with SocketTransport(socket_path=server.socket_path) \
                        as client:
                    plan.arm("pool.request", "worker-hang",
                             seconds=30.0)
                    hung = client.parse("c.c", fresh=True)
                    assert hung.record["status"] == "timeout"
                    assert client.parse("c.c", fresh=True).ok
                    assert client.stats()["pool"]["timeouts"] == 1
                    client.shutdown()
            assert server.wait(10.0)
        finally:
            server.close()

    def test_cache_faults_stay_out_of_the_answer(self, pooled_server):
        """A corrupt blob read and an ENOSPC write at the result cache,
        each during a served parse: both parses are answered, and the
        corrupt blob is counted."""
        server, sock = pooled_server
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            with SocketTransport(socket_path=sock) as client:
                assert client.parse("a.c").ok
                # Demote the memory entry so the next lookup reads the
                # disk blob, which the fault truncates first.
                client.invalidate("a.c")
                plan.arm("cache.get", "corrupt-blob")
                assert client.parse("a.c").ok
                assert client.stats()["result_cache"]["corrupt"] == 1
                plan.arm("cache.put", "enospc")
                assert client.parse("a.c", fresh=True).ok
                client.shutdown()
        assert server.wait(10.0)
        assert plan.fired("corrupt-blob") == 1
        assert plan.fired("enospc") == 1

    def test_hard_stop_restart_resumes_over_http(self, pooled_server,
                                                 tmp_path):
        """A daemon stopped without a drain leaves its journal: a new
        one on the same cache dir answers its first HTTP parse from a
        warm tier instead of parsing cold."""
        server, sock = pooled_server
        with SocketTransport(socket_path=sock) as client:
            assert client.parse("a.c").ok
        server.close()
        assert server.wait(10.0)
        restarted = self.pooled(tmp_path, "restart.sock").start()
        try:
            with connect(restarted.http.url) as session:
                resumed = session.parse("a.c").record
                assert resumed["cache"] == "hit"
                assert resumed["tier"] in (TIER_DISK, TIER_TOKEN)
                assert session.stats()["journal"]["resumed"] > 0
                assert session.shutdown()["status"] == "ok"
            assert restarted.wait(10.0)
        finally:
            restarted.close()


class TestServeCli:
    def test_usage_error_without_endpoint(self, capsys):
        from repro.tools.serve_cli import main
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "--listen" in err and "--connect" in err

    def test_client_mode_connect_failure(self, tmp_path, capsys):
        from repro.tools.serve_cli import main
        code = main(["--connect", f"unix:{tmp_path / 'nope.sock'}",
                     "--stats"])
        assert code == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_daemon_start_does_not_import_the_baselines(self):
        # A fresh interpreter: this process has imported everything.
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, repro.tools.serve_cli; "
                 "print('repro.baselines' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_client_against_running_server(self, tmp_path, capsys):
        sock = str(tmp_path / "cli.sock")
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            socket_path=sock,
            cache_dir=str(tmp_path / "cache")).start()
        try:
            from repro.tools.serve_cli import main
            code = main(["--connect", f"unix:{sock}", "--parse", "a.c",
                         "--parse", "a.c", "--json", "--shutdown"])
            out = capsys.readouterr().out
            assert code == 0
            lines = [json.loads(line) for line in out.splitlines()
                     if line.startswith("{")]
            parses = [line for line in lines if line.get("op") == "parse"]
            assert [p["cache"] for p in parses] == ["miss", "hit"]
            assert server.wait(10.0)
        finally:
            server.close()


class TestServeTraceExport:
    def test_lane_per_request_chrome_trace(self, tmp_path):
        from repro.obs import Tracer, to_chrome_trace, \
            validate_chrome_trace
        tracer = Tracer()
        service = ParseService(make_state(tmp_path), tracer=tracer)
        service.handle({"op": "parse", "path": "a.c"})
        service.handle({"op": "parse", "path": "b.c"})
        trace = to_chrome_trace(tracer, lane_per_root=True)
        assert validate_chrome_trace(trace) == []
        lanes = {event["tid"] for event in trace["traceEvents"]
                 if event.get("ph") == "X"
                 and event["name"] == "serve.request"}
        assert len(lanes) == 2
        names = [event["args"]["name"]
                 for event in trace["traceEvents"]
                 if event.get("name") == "thread_name"]
        assert any("a.c" in name for name in names)
        assert any("b.c" in name for name in names)


def flatten(stats, names):
    """The ``stats`` body's value at each dotted counter name."""
    values = {}
    for name in names:
        node = stats
        for part in name.split("."):
            node = node[part]
        values[name] = node
    return values


class TestCounterRegistry:
    """One counter store: ``stats`` over either transport, the Chrome
    trace and ``Counters.snapshot()`` read the same registry."""

    def test_stats_is_the_registry_on_both_transports(self, tmp_path):
        import http.client
        from repro.serve import connect
        sock = str(tmp_path / "registry.sock")
        server = ParseServer(
            config=Config(files=dict(FILES),
                          include_paths=INCLUDE_PATHS),
            socket_path=sock, http_port=0, max_queue=1, workers=2,
            pool_config=PoolConfig(size=2, heartbeat_seconds=60.0),
            cache_dir=str(tmp_path / "cache")).start()
        plan = chaos.FaultPlan()
        try:
            with SocketTransport(socket_path=sock) as client:
                fresh = client.stats()
                assert flatten(fresh, ["cache_hits", "cache_misses",
                                       "result_cache.hits",
                                       "result_cache.misses",
                                       "journal.resumed"]) == {
                    "cache_hits": 0, "cache_misses": 0,
                    "result_cache.hits": 0, "result_cache.misses": 0,
                    "journal.resumed": 0}
                assert client.parse("a.c").record["cache"] == "miss"
                assert client.parse("a.c").record["cache"] == "hit"
                # Over-depth burst: two dispatchers and one queue slot
                # leave at least three of these six shed.
                ids = [client.submit("parse", path="c.c", fresh=True,
                                     delay=0.3) for _ in range(2)]
                ids += [client.submit("parse", path="c.c", fresh=True)
                        for _ in range(4)]
                burst = client.drain(ids)
                shed = sum(1 for response in burst
                           if response["status"] == STATUS_SHED)
                served = len(burst) - shed
                assert shed >= 3
                dropped = client.invalidate("include/shared.h",
                                            text="#define SHARED 4\n")
                assert dropped["count"] == 1
                with chaos.injected(plan):
                    plan.arm("pool.request", "worker-crash")
                    assert client.parse("b.c", fresh=True).ok
                assert plan.fired("worker-crash") == 1
                host, port = server.http_address
                raw = http.client.HTTPConnection(host, port, timeout=30)
                raw.request("GET", "/v1/nope")
                assert raw.getresponse().status == 404
                raw.close()
                via_socket = client.stats()
            with connect(server.http.url) as session:
                via_http = session.stats()
            snapshot = server.counters.snapshot()
            # The stats reply counts its own request; the HTTP one is
            # one more service request and one more HTTP request.
            assert flatten(via_http, snapshot) == snapshot
            expected_socket = dict(snapshot)
            expected_socket["requests"] -= 1
            expected_socket["http.requests"] -= 1
            assert flatten(via_socket, snapshot) == expected_socket
            parses = 2 + served      # a.c, b.c and the served burst
            assert flatten(via_http, [
                "requests", "cache_hits", "cache_misses", "parses",
                "submitted", "shed", "invalidated", "deadline_expired",
                "http.requests", "http.errors", "pool.crashes",
                "pool.restarts", "pool.spawns", "pool.timeouts",
                "pool.inline_parses", "pool.breaker.trips",
                "result_cache.hits", "result_cache.misses",
                "result_cache.corrupt"]) == {
                # + the hit, the invalidate and three stats requests
                "requests": parses + 5, "cache_hits": 1,
                "cache_misses": parses, "parses": parses,
                "submitted": parses + 2, "shed": shed,
                "invalidated": 1, "deadline_expired": 0,
                "http.requests": 2, "http.errors": 1,
                "pool.crashes": 1, "pool.restarts": 1,
                "pool.spawns": 3, "pool.timeouts": 0,
                "pool.inline_parses": 0, "pool.breaker.trips": 0,
                "result_cache.hits": 0, "result_cache.misses": 1,
                "result_cache.corrupt": 0}
            assert via_http["pool"]["alive"] == 2
            assert via_http["pool"]["breaker"]["tripped"] is False
        finally:
            server.close()

    def test_trace_counter_samples_are_the_final_stats(self, tmp_path):
        from repro.serve import connect
        from repro.tools import serve_cli
        for path, text in FILES.items():
            os.makedirs(os.path.dirname(str(tmp_path / path)),
                        exist_ok=True)
            (tmp_path / path).write_text(text)
        sock = str(tmp_path / "traced.sock")
        trace_path = str(tmp_path / "trace.json")
        daemon = threading.Thread(target=serve_cli.main, args=([
            "--listen", f"unix:{sock}", "-I", str(tmp_path / "include"),
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", trace_path],), daemon=True)
        daemon.start()
        deadline = Deadline(30.0)
        while not os.path.exists(sock) and not deadline.expired():
            time.sleep(0.02)
        with connect(f"unix:{sock}") as session:
            unit = str(tmp_path / "a.c")
            assert session.parse(unit).record["cache"] == "miss"
            assert session.parse(unit).record["cache"] == "hit"
            session.invalidate(str(tmp_path / "include/shared.h"))
            stats = session.stats()
            session.shutdown()
        daemon.join(30.0)
        assert not daemon.is_alive()
        with open(trace_path) as handle:
            trace = json.load(handle)
        samples = {event["name"]: event["args"]["value"]
                   for event in trace["traceEvents"]
                   if event["ph"] == "C"}
        # The shutdown after the stats reply is one more admitted
        # request; nothing else moves.
        expected = flatten(stats, samples)
        expected["requests"] += 1
        expected["submitted"] += 1
        assert samples == expected
        assert samples["cache_hits"] == 1
        assert samples["result_cache.misses"] == 1

    def test_concurrent_increments_are_exact(self):
        from repro.obs import Counters
        counters = Counters()
        start = threading.Barrier(8)
        # Switch threads as often as the interpreter allows, so an
        # unlocked read-add-store would lose increments.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def bump():
            start.wait()
            for _ in range(1000):
                counters.inc("hits")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert counters.snapshot() == {"hits": 8000}

    def test_reset_after_fork_frees_a_held_lock(self, tmp_path):
        state = make_state(tmp_path)
        held = threading.Event()
        release = threading.Event()

        def hold():
            with state.counters._lock:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10.0)
        pid = os.fork()
        if pid == 0:  # the child: its copy of the lock is held forever
            try:
                state.reset_after_fork()
                state.counters.inc("parses")
                os._exit(0 if counter(state, "parses") == 1 else 1)
            finally:
                os._exit(2)
        release.set()
        holder.join()
        deadline = Deadline(10.0)
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if deadline.expired():
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child deadlocked on the counters")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
