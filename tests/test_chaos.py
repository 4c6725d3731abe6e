"""Tests for fault injection (``repro.chaos``) and the fault-tolerant
serve machinery it exercises: the supervised worker pool, the
crash-surviving journal, and the hardened result cache."""

import json
import os
import time

import pytest

from repro import chaos
from repro.api import Config
from repro.corpus import KernelSpec, generate_kernel
from repro.engine import (STATUS_DEGRADED, STATUS_ERROR, STATUS_OK,
                          STATUS_TIMEOUT, BatchEngine, CorpusJob,
                          CrashLoopBreaker, EngineConfig, MetricsStream)
from repro.engine.cache import ResultCache
from repro.serve import Deadline, ParseJournal, PoolConfig, ServerState
from repro.serve.pool import WorkerPool

FILES = {
    "include/shared.h": "#define SHARED 1\n",
    "a.c": "#include <shared.h>\nint a = SHARED;\n",
    "b.c": "int b = 2;\n",
}
INCLUDE_PATHS = ("include",)


def make_state(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServerState(
        Config(files=dict(FILES), include_paths=INCLUDE_PATHS),
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


@pytest.fixture(autouse=True)
def no_leftover_plan():
    chaos.uninstall()
    yield
    chaos.uninstall()


# -- the harness itself ------------------------------------------------


class TestFaultPlan:
    def test_disabled_by_default(self):
        assert chaos.ACTIVE is None
        chaos.fire("anything", path="x")  # no plan: must be a no-op

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            chaos.Fault("site", "meteor-strike")

    def test_arm_fires_on_next_invocation_only(self):
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            marker = RuntimeError("boom")
            plan.arm("site", "raise", exc=marker)
            with pytest.raises(RuntimeError):
                chaos.fire("site")
            chaos.fire("site")  # consumed: fires exactly once
        assert plan.fired("raise") == 1
        assert plan.counts["site"] == 2

    def test_arm_after_skips_invocations(self):
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            plan.arm("site", "raise", after=2, exc=RuntimeError("x"))
            chaos.fire("site")
            chaos.fire("site")
            with pytest.raises(RuntimeError):
                chaos.fire("site")

    def test_sites_are_independent(self):
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            plan.arm("one", "raise", exc=RuntimeError("x"))
            chaos.fire("other")  # different site: untouched
            assert plan.fired() == 0
            with pytest.raises(RuntimeError):
                chaos.fire("one")

    def test_seeded_schedule_is_deterministic(self):
        schedules = []
        for _ in range(2):
            plan = chaos.FaultPlan(
                [chaos.Fault("s", "raise"), chaos.Fault("s", "raise")],
                seed=7, window=5)
            schedules.append([fault.at for fault in plan.pending])
        assert schedules[0] == schedules[1]

    def test_log_records_each_injection(self):
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            plan.arm("site", "worker-crash")
            request = {"op": "parse"}
            chaos.fire("site", request=request)
        assert request["_chaos"] == "crash"
        assert plan.log == [{"site": "site", "kind": "worker-crash",
                             "at": 1}]

    def test_corrupt_blob_truncates_file(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"status": "ok"}))
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            plan.arm("site", "corrupt-blob")
            chaos.fire("site", path=str(path))
        with pytest.raises(ValueError):
            json.loads(path.read_text())

    def test_enospc_raises_oserror(self):
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            plan.arm("site", "enospc")
            with pytest.raises(OSError):
                chaos.fire("site")


# -- satellite: hardened ResultCache.get -------------------------------


class TestResultCacheCorruption:
    def make_cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"), "fp")

    def test_truncated_blob_is_a_miss_and_deleted(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.put("k", {}, {"status": "ok"})
        # Hand-truncate the blob mid-JSON (a crashed writer).
        path = cache._path("k")
        with open(path, "r+b") as handle:
            handle.truncate(5)
        assert cache.get("k") is None
        assert counter(cache, "result_cache.corrupt") == 1
        assert not os.path.exists(path), "bad blob must be quarantined"
        assert counter(cache, "result_cache.misses") == 1
        # Subsequent reads are plain misses, not repeat corruption.
        assert cache.get("k") is None
        assert counter(cache, "result_cache.corrupt") == 1

    def test_non_dict_blob_is_a_miss(self, tmp_path):
        cache = self.make_cache(tmp_path)
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache._path("k"), "w") as handle:
            handle.write('["not", "a", "record"]')
        assert cache.get("k") is None
        assert counter(cache, "result_cache.corrupt") == 1

    def test_binary_garbage_is_a_miss(self, tmp_path):
        cache = self.make_cache(tmp_path)
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache._path("k"), "wb") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        assert cache.get("k") is None
        assert counter(cache, "result_cache.corrupt") == 1

    def test_intact_records_still_hit(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.put("k", {}, {"status": "ok"})
        assert cache.get("k")["record"] == {"status": "ok"}
        assert counter(cache, "result_cache.corrupt") == 0


# -- the journal -------------------------------------------------------


class TestParseJournal:
    def test_roundtrip_newest_wins(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = ParseJournal(path)
        journal.append("a.c", "key1", {"include/shared.h": "d1"}, "fp1")
        journal.append("b.c", "key2", {"b.h": None}, None)
        journal.append("a.c", "key3", {}, "fp3")
        entries = ParseJournal(path).load()
        assert entries["a.c"]["key"] == "key3"
        assert entries["a.c"]["token_fp"] == "fp3"
        assert entries["b.c"]["token_fp"] is None
        assert entries["b.c"]["reads"] == {"b.h": None}

    def test_corrupt_lines_discarded_individually(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = ParseJournal(path)
        journal.append("a.c", "key1", {}, "fp1")
        journal.append("b.c", "key2", {}, "fp2")
        with open(path, "a") as handle:
            handle.write('{"torn": tru')          # torn final append
            handle.write("\n[1, 2, 3]\n")         # wrong shape
            handle.write('{"unit": 5, "key": "x", "reads": {},'
                         ' "token_fp": null}\n')  # wrong types
        loaded = ParseJournal(path)
        entries = loaded.load()
        assert set(entries) == {"a.c", "b.c"}
        assert counter(loaded, "journal.discarded") == 3

    def test_missing_file_loads_empty(self, tmp_path):
        journal = ParseJournal(str(tmp_path / "nope.jsonl"))
        assert journal.load() == {}
        assert counter(journal, "journal.discarded") == 0

    def test_compaction_preserves_live_entries(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = ParseJournal(path)
        for round_number in range(200):
            journal.append("a.c", f"key{round_number}", {}, "fp")
        assert counter(journal, "journal.compactions") >= 1
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) < 200
        entries = ParseJournal(path).load()
        assert entries["a.c"]["key"] == "key199"

    def test_append_failure_is_swallowed(self, tmp_path):
        journal = ParseJournal(str(tmp_path / "journal.jsonl"))
        plan = chaos.FaultPlan()
        with chaos.injected(plan):
            plan.arm("journal.append", "enospc")
            journal.append("a.c", "key1", {}, "fp1")  # must not raise
            journal.append("a.c", "key2", {}, "fp2")
        entries = ParseJournal(journal.path).load()
        assert entries["a.c"]["key"] == "key2"


class TestJournalResume:
    def test_restart_resumes_disk_tier(self, tmp_path):
        state = make_state(tmp_path)
        record, tier = parse_unit(state, "a.c")
        assert tier is None and record["status"] == "ok"
        # Same cache dir, fresh process-worth of state: the journal
        # must bring back the entry metadata and the first lookup must
        # short-circuit from disk, not re-parse.
        resumed = make_state(tmp_path)
        assert counter(resumed, "journal.resumed") == 1
        record, tier = parse_unit(resumed, "a.c")
        assert tier == "disk"
        assert counter(resumed, "parses") == 0

    def test_restart_resumes_token_tier(self, tmp_path):
        state = make_state(tmp_path)
        parse_unit(state, "b.c")
        resumed = make_state(tmp_path)
        # Layout-only edit: new content digest (so no memory/disk key
        # match) but identical token fingerprint.  The resumed entry
        # has no in-memory record — it must be lazily fetched from the
        # old key's disk blob.
        resumed.files.put("b.c", "int   b /* layout */ = 2;\n")
        record, tier = parse_unit(resumed, "b.c")
        assert tier == "token"
        assert counter(resumed, "parses") == 0
        assert record["status"] == "ok"

    def test_no_journal_when_cache_disabled(self, tmp_path):
        state = make_state(tmp_path, use_result_cache=False)
        assert state.journal is None
        parse_unit(state, "b.c")  # must not crash without a journal

    def test_closure_format_lines_are_never_resumed(self, tmp_path):
        # A line without digests cannot say whether its files changed.
        state = make_state(tmp_path)
        os.makedirs(os.path.dirname(state.journal.path))
        with open(state.journal.path, "w") as handle:
            handle.write(json.dumps({"unit": "a.c", "key": "k",
                                     "closure": ["a.c"],
                                     "token_fp": "fp"}) + "\n")
        resumed = make_state(tmp_path)
        assert counter(resumed, "journal.resumed") == 0
        assert "a.c" not in resumed.entries
        assert counter(resumed, "journal.discarded") == 1

    def test_invalidation_demotion_survives_restart(self, tmp_path):
        state = make_state(tmp_path)
        parse_unit(state, "a.c")
        state.invalidate("include/shared.h",
                         text="#define SHARED 99\n")
        resumed = make_state(tmp_path)
        entry = resumed.entries.get("a.c")
        assert entry is not None and entry.key == "", \
            "restart must not resurrect a pre-edit key"


# -- the worker pool ---------------------------------------------------


def make_pool(state, **kwargs):
    kwargs.setdefault("size", 1)
    kwargs.setdefault("heartbeat_seconds", 0.1)
    pool = WorkerPool(state, PoolConfig(**kwargs),
                      counters=state.counters)
    pool.start()
    state.executor = pool.execute
    return pool


class TestWorkerPool:
    def test_pooled_parse_matches_inline(self, tmp_path):
        state = make_state(tmp_path)
        pool = make_pool(state)
        try:
            record, _tier = parse_unit(state, "a.c")
            assert record["status"] == "ok"
            assert record["unit"] == "a.c"
            assert counter(pool, "pool.spawns") >= 1
        finally:
            pool.close()

    def test_worker_crash_recovers_same_request(self, tmp_path):
        state = make_state(tmp_path)
        pool = make_pool(state)
        try:
            plan = chaos.FaultPlan()
            with chaos.injected(plan):
                plan.arm("pool.request", "worker-crash")
                record, _tier = parse_unit(state, "a.c")
            assert record["status"] == "ok", \
                "the crashed request must be retried on a fresh worker"
            assert counter(pool, "pool.crashes") == 1
            assert counter(pool, "pool.restarts") >= 1
            assert plan.fired("worker-crash") == 1
        finally:
            pool.close()

    def test_hang_is_killed_at_deadline(self, tmp_path):
        state = make_state(tmp_path)
        pool = make_pool(state)
        try:
            plan = chaos.FaultPlan()
            with chaos.injected(plan):
                plan.arm("pool.request", "worker-hang", seconds=30.0)
                text = state.files.read("b.c")
                key = state.unit_key("b.c", text)
                record = state.parse("b.c", text, key,
                                     deadline=Deadline(0.5))
            assert record["status"] == "timeout"
            # A failure record must never be published to the caches.
            fresh_record, tier = parse_unit(state, "b.c")
            assert tier is None and fresh_record["status"] == "ok"
        finally:
            pool.close()

    def test_breaker_trips_to_inline_mode(self, tmp_path):
        state = make_state(tmp_path)
        pool = make_pool(state, breaker_threshold=2,
                         breaker_cooldown=3600.0)
        try:
            plan = chaos.FaultPlan()
            with chaos.injected(plan):
                # Both the first attempt and its retry crash: two
                # consecutive worker deaths reach the threshold.
                # (after= is relative to the *current* count, so the
                # second fault must be armed one invocation later.)
                plan.arm("pool.request", "worker-crash")
                plan.arm("pool.request", "worker-crash", after=1)
                record, _tier = parse_unit(state, "a.c")
            assert record["status"] == "ok", \
                "breaker-degraded mode still answers (inline)"
            assert pool.breaker.tripped
            assert counter(pool, "pool.inline_parses") >= 1
            assert counter(pool, "pool.breaker.trips") == 1
        finally:
            pool.close()

    def test_recycle_after_max_requests(self, tmp_path):
        state = make_state(tmp_path)
        pool = make_pool(state, max_requests=1,
                         heartbeat_seconds=0.05)
        try:
            record, _tier = parse_unit(state, "b.c")
            assert record["status"] == "ok"
            deadline = Deadline(5.0)
            while counter(pool, "pool.recycles") == 0 \
                    and not deadline.expired():
                time.sleep(0.02)
            assert counter(pool, "pool.recycles") >= 1
            # The replacement still serves.
            text = state.files.read("b.c")
            key = state.unit_key("b.c", text)
            record = state.parse("b.c", text, key)
            assert record["status"] == "ok"
        finally:
            pool.close()

    def test_close_reaps_children(self, tmp_path):
        state = make_state(tmp_path)
        pool = make_pool(state, size=2)
        pids = [worker.pid for worker in pool._workers]
        assert pids
        pool.close()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: no such process


# -- the batch engine's corpus path on the pool ------------------------

# Four small units: enough that siblings are in flight beside the armed
# one on two workers.
CORPUS_SPEC = KernelSpec(seed=13, subsystems=2, drivers_per_subsystem=2,
                         functions_per_driver=2, figure6_entries=2,
                         extra_headers_per_subsystem=1)
USABLE = (STATUS_OK, STATUS_DEGRADED)


@pytest.fixture(scope="module")
def corpus_job():
    return CorpusJob.from_corpus(generate_kernel(CORPUS_SPEC))


def pooled_run(job, plan):
    """A two-worker engine run with one armed ``pool.request`` fault;
    returns the report and the failed first attempts."""
    config = EngineConfig(workers=2, timeout_seconds=5.0, retries=1,
                          backoff_base=0, use_result_cache=False)
    metrics = MetricsStream(keep_events=True)
    with chaos.injected(plan):
        report = BatchEngine(config).run(job, metrics)
    failed = [event for event in metrics.events
              if event["event"] == "unit"
              and event["status"] not in USABLE]
    return report, failed


class TestBatchEngineChaos:
    def test_worker_crash_recovers_on_retry(self, corpus_job):
        serial = BatchEngine(EngineConfig(use_result_cache=False)) \
            .run(corpus_job)
        plan = chaos.FaultPlan()
        plan.arm("pool.request", "worker-crash")
        report, failed = pooled_run(corpus_job, plan)
        assert plan.fired("worker-crash") == 1
        assert [e["status"] for e in failed] == [STATUS_ERROR]
        retried = [r for r in report.records if r["attempt"] > 1]
        assert [r["unit"] for r in retried] == [failed[0]["unit"]], \
            "only the armed unit is retried"
        assert retried[0]["status"] in USABLE
        assert report.statuses() == serial.statuses()
        assert report.subparser_rollup() == serial.subparser_rollup()

    def test_dispatch_error_fails_only_its_unit(self, corpus_job):
        plan = chaos.FaultPlan()
        plan.arm("pool.request", "raise")
        report, failed = pooled_run(corpus_job, plan)
        assert plan.fired("raise") == 1
        assert [e["status"] for e in failed] == [STATUS_ERROR]
        assert "chaos" in failed[0]["error"]
        retried = [r for r in report.records if r["attempt"] > 1]
        assert [r["unit"] for r in retried] == [failed[0]["unit"]], \
            "only the armed unit is retried"
        assert retried[0]["status"] in USABLE
        for record in report.records:
            if record is not retried[0]:
                assert record["status"] in USABLE
                assert record["attempt"] == 1

    def test_worker_hang_times_out_alone(self, corpus_job):
        plan = chaos.FaultPlan()
        plan.arm("pool.request", "worker-hang", seconds=30.0)
        report, failed = pooled_run(corpus_job, plan)
        assert plan.fired("worker-hang") == 1
        assert [e["status"] for e in failed] == [STATUS_TIMEOUT]
        retried = [r for r in report.records if r["attempt"] > 1]
        assert [r["unit"] for r in retried] == [failed[0]["unit"]], \
            "only the hung unit is retried"
        assert retried[0]["status"] in USABLE + (STATUS_TIMEOUT,)
        for record in report.records:
            if record is not retried[0]:
                assert record["status"] in USABLE
                assert record["attempt"] == 1


class TestCrashLoopBreaker:
    def test_trips_exactly_at_threshold(self):
        breaker = CrashLoopBreaker(3)
        assert not breaker.failure()
        assert not breaker.failure()
        assert breaker.failure(), "third consecutive failure trips"
        assert breaker.tripped and breaker.trips == 1
        assert not breaker.failure(), "already tripped: no re-trip"

    def test_success_resets_streak(self):
        breaker = CrashLoopBreaker(2)
        breaker.failure()
        breaker.success()
        assert not breaker.failure(), "streak was reset"
        assert not breaker.tripped

    def test_reset_reopens(self):
        breaker = CrashLoopBreaker(1)
        assert breaker.failure()
        breaker.reset()
        assert not breaker.tripped
        assert breaker.failure(), "half-open probe can re-trip"
        assert breaker.trips == 2

    def test_zero_threshold_disables(self):
        breaker = CrashLoopBreaker(0)
        for _ in range(10):
            assert not breaker.failure()
        assert not breaker.tripped
