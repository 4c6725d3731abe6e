"""Tests for the corpus-scale batch engine (``repro.engine``)."""

import json
import os

import pytest

from repro.corpus import KernelSpec, generate_kernel
from repro.cpp import DictFileSystem
from repro.engine import (BatchEngine, CorpusJob, CorpusReport,
                          EngineConfig, MetricsStream, ResultCache,
                          STATUS_CRASHED, STATUS_DEGRADED,
                          STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT,
                          format_report, include_closure_digest,
                          percentile)
from repro.engine.cache import result_key
from repro.superc import SuperC

# Statuses that count as a usable result: the synthetic corpus's
# drivers carry guarded #error directives (mutually exclusive config
# options), which error confinement now reports as "degraded".
USABLE = (STATUS_OK, STATUS_DEGRADED)

# Small but real: 2 compilation units with the full Table 1 feature mix.
SMALL_SPEC = KernelSpec(seed=11, subsystems=1, drivers_per_subsystem=2,
                        functions_per_driver=3, figure6_entries=4,
                        extra_headers_per_subsystem=1)

# A corpus big enough that a wave outlives its first dispatch on two
# workers (4 units).
FOUR_UNIT_SPEC = KernelSpec(seed=11, subsystems=2, drivers_per_subsystem=2,
                            functions_per_driver=2, figure6_entries=2,
                            extra_headers_per_subsystem=1)

# Fault hooks are importable by name (the dotted form the engine
# resolves); the target unit travels through the environment, which
# forked workers inherit.
BAD_UNIT_ENV = "REPRO_ENGINE_TEST_BAD_UNIT"


def slow_unit_hook(unit):
    import time
    if os.environ.get(BAD_UNIT_ENV) == unit:
        time.sleep(10)


def raising_unit_hook(unit):
    if os.environ.get(BAD_UNIT_ENV) == unit:
        raise RuntimeError("injected failure")


def crashing_unit_hook(unit):
    """Kill the process outright: no exception, no cleanup."""
    if os.environ.get(BAD_UNIT_ENV) == unit:
        os._exit(70)


def deadline_swallowing_hook(unit):
    """Sleep 10 s and swallow anything raised meanwhile — an in-process
    deadline exception included."""
    import time
    if os.environ.get(BAD_UNIT_ENV) == unit:
        end = time.monotonic() + 10
        while time.monotonic() < end:
            try:
                time.sleep(max(0.0, end - time.monotonic()))
            except BaseException:
                pass


@pytest.fixture(scope="module")
def small_corpus():
    return generate_kernel(SMALL_SPEC)


@pytest.fixture(scope="module")
def four_unit_corpus():
    return generate_kernel(FOUR_UNIT_SPEC)


def make_config(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return EngineConfig(**kwargs)


class TestSerialRun:
    def test_all_units_parse(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        report = BatchEngine(make_config(tmp_path)).run(job)
        assert report.units == len(small_corpus.units)
        assert report.all_ok
        assert set(report.by_status) <= set(USABLE)
        assert report.ok + report.degraded == report.units
        # The drivers' mutually-exclusive-options #error is confined,
        # not fatal: those units come back degraded with diagnostics.
        assert report.degraded > 0
        assert report.diagnostic_rollup()

    def test_record_schema(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        report = BatchEngine(make_config(tmp_path)).run(job)
        record = report.records[0]
        for key in ("unit", "status", "attempt", "cache", "seconds",
                    "timing", "subparsers", "preprocessor", "profile",
                    "failures", "error"):
            assert key in record
        assert set(record["timing"]) == {"lex", "preprocess", "parse",
                                         "total"}
        assert record["timing"]["total"] >= record["timing"]["parse"]
        # Profiles only appear on EngineConfig(profile=True) runs.
        assert record["profile"] is None
        assert set(record["subparsers"]) == {"max", "forks", "merges"}
        assert record["subparsers"]["max"] >= 1
        assert record["preprocessor"]["macro_definitions"] > 0
        # Records are the JSON currency of the metrics stream and the
        # result cache: they must round-trip.
        assert json.loads(json.dumps(record)) == record

    def test_parse_failure_status(self, tmp_path):
        # Unconditionally broken: no configuration parses, so this is
        # a hard parse failure, not a degraded partial result.
        job = CorpusJob(["broken.c"],
                        files={"broken.c": "int x = ;\nint y;\n"})
        report = BatchEngine(make_config(tmp_path)).run(job)
        assert report.by_status == {"parse-failed": 1}
        assert not report.all_ok
        assert report.records[0]["failures"]

    def test_conditional_parse_failure_degrades(self, tmp_path):
        # Broken only under A: the !A configuration still yields an
        # AST, so the unit is degraded rather than parse-failed.
        job = CorpusJob(["partial.c"],
                        files={"partial.c": "#ifdef A\nint x = ;\n"
                                            "#endif\nint y;\n"})
        report = BatchEngine(make_config(tmp_path)).run(job)
        assert report.by_status == {STATUS_DEGRADED: 1}
        assert report.all_ok
        record = report.records[0]
        assert record["failures"]
        assert record["invalid_configs"]

    def test_unreadable_unit_is_error(self, tmp_path):
        job = CorpusJob(["missing.c"], files={})
        report = BatchEngine(make_config(tmp_path)).run(job)
        assert report.by_status == {STATUS_ERROR: 1}


class TestParallelRun:
    # Serial/parallel record parity is one row of the equivalence
    # matrix (tests/test_equivalence.py).

    def test_crash_isolated_to_one_unit(self, small_corpus, tmp_path,
                                        monkeypatch):
        job = CorpusJob.from_corpus(small_corpus)
        bad = job.units[0]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, workers=2, retries=1, use_result_cache=False,
            fault_hook="tests.test_engine:raising_unit_hook")
        report = BatchEngine(config).run(job)
        statuses = report.statuses()
        assert statuses[bad] == STATUS_ERROR
        for unit in job.units[1:]:
            assert statuses[unit] in USABLE
        bad_record = [r for r in report.records if r["unit"] == bad][0]
        assert bad_record["attempt"] == 2  # retried once
        assert "injected failure" in bad_record["error"]


class TestTimeoutAndRetry:
    def test_slow_unit_times_out_and_retries(self, small_corpus,
                                             tmp_path, monkeypatch):
        job = CorpusJob.from_corpus(small_corpus)
        bad = job.units[-1]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, timeout_seconds=0.2, retries=1,
            use_result_cache=False,
            fault_hook="tests.test_engine:slow_unit_hook")
        report = BatchEngine(config).run(job)
        statuses = report.statuses()
        assert statuses[bad] == STATUS_TIMEOUT
        for unit in job.units[:-1]:
            assert statuses[unit] in USABLE
        bad_record = [r for r in report.records if r["unit"] == bad][0]
        assert bad_record["attempt"] == 2
        assert "deadline" in bad_record["error"]

    def test_zero_retries(self, small_corpus, tmp_path, monkeypatch):
        job = CorpusJob.from_corpus(small_corpus)
        bad = job.units[0]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, timeout_seconds=0.2, retries=0,
            use_result_cache=False,
            fault_hook="tests.test_engine:slow_unit_hook")
        report = BatchEngine(config).run(job)
        bad_record = [r for r in report.records if r["unit"] == bad][0]
        assert bad_record["status"] == STATUS_TIMEOUT
        assert bad_record["attempt"] == 1


class TestWorkerRuntime:
    """Units that kill or overstay their worker fail alone."""

    def test_hard_crash_fails_only_its_unit(self, four_unit_corpus,
                                            tmp_path, monkeypatch):
        job = CorpusJob.from_corpus(four_unit_corpus)
        assert len(job.units) == 4
        bad = job.units[1]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, workers=2, retries=0, use_result_cache=False,
            fault_hook="tests.test_engine:crashing_unit_hook")
        # Reaching the asserts at all shows this process survived.
        report = BatchEngine(config).run(job)
        by_unit = {r["unit"]: r for r in report.records}
        assert by_unit[bad]["status"] not in USABLE
        assert "died" in by_unit[bad]["error"]
        for unit in job.units:
            if unit != bad:
                assert by_unit[unit]["status"] in USABLE
                assert by_unit[unit]["attempt"] == 1

    def test_crash_loop_trips_then_reruns_clean(self, small_corpus,
                                                tmp_path, monkeypatch):
        job = CorpusJob.from_corpus(small_corpus)
        bad = job.units[0]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, workers=2, retries=3, crash_loop_threshold=2,
            backoff_base=0,
            fault_hook="tests.test_engine:crashing_unit_hook")
        report = BatchEngine(config).run(job)
        by_unit = {r["unit"]: r for r in report.records}
        assert by_unit[bad]["status"] == STATUS_CRASHED
        assert by_unit[bad]["attempt"] == 2
        for unit in job.units[1:]:
            assert by_unit[unit]["status"] in USABLE
            assert by_unit[unit]["attempt"] == 1
        monkeypatch.delenv(BAD_UNIT_ENV)
        rerun = BatchEngine(config).run(job)
        by_unit = {r["unit"]: r for r in rerun.records}
        assert by_unit[bad]["cache"] == "miss"
        assert by_unit[bad]["status"] in USABLE

    def test_swallowed_deadline_still_times_out(self, small_corpus,
                                                tmp_path, monkeypatch):
        job = CorpusJob.from_corpus(small_corpus)
        bad = job.units[0]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, workers=1, timeout_seconds=0.2, retries=0,
            use_result_cache=False,
            fault_hook="tests.test_engine:deadline_swallowing_hook")
        report = BatchEngine(config).run(job)
        by_unit = {r["unit"]: r for r in report.records}
        assert by_unit[bad]["status"] == STATUS_TIMEOUT
        assert by_unit[bad]["seconds"] < 2.0
        for unit in job.units[1:]:
            assert by_unit[unit]["status"] in USABLE


class TestResultCache:
    def test_second_run_hits(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        config = make_config(tmp_path)
        cold = BatchEngine(config).run(job)
        warm = BatchEngine(config).run(job)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.units
        assert warm.cache_hit_rate == 1.0
        assert cold.statuses() == warm.statuses()
        assert cold.subparser_rollup() == warm.subparser_rollup()

    def test_source_edit_invalidates_unit(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        config = make_config(tmp_path)
        BatchEngine(config).run(job)
        edited = dict(small_corpus.files)
        target = job.units[0]
        edited[target] += "\nint engine_cache_probe;\n"
        edited_job = CorpusJob(job.units, job.include_paths,
                               files=edited)
        warm = BatchEngine(config).run(edited_job)
        by_unit = {r["unit"]: r["cache"] for r in warm.records}
        assert by_unit[target] == "miss"
        for unit in job.units[1:]:
            assert by_unit[unit] == "hit"

    def test_header_edit_invalidates_includers(self, small_corpus,
                                               tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        config = make_config(tmp_path)
        BatchEngine(config).run(job)
        edited = dict(small_corpus.files)
        # kernel.h is included (transitively) by every driver.
        edited["include/linux/kernel.h"] += "\nint cache_probe;\n"
        warm = BatchEngine(config).run(
            CorpusJob(job.units, job.include_paths, files=edited))
        assert warm.cache_hits == 0

    def test_timeouts_stay_uncached(self, small_corpus, tmp_path,
                                    monkeypatch):
        job = CorpusJob.from_corpus(small_corpus)
        bad = job.units[0]
        monkeypatch.setenv(BAD_UNIT_ENV, bad)
        config = make_config(
            tmp_path, timeout_seconds=0.2, retries=0,
            fault_hook="tests.test_engine:slow_unit_hook")
        BatchEngine(config).run(job)
        # Second run without the fault: the previously timed-out unit
        # must be reparsed (miss), not answered from the cache.
        monkeypatch.delenv(BAD_UNIT_ENV)
        warm = BatchEngine(config).run(job)
        by_unit = {r["unit"]: r for r in warm.records}
        assert by_unit[bad]["cache"] == "miss"
        assert by_unit[bad]["status"] in USABLE


class TestCodeIdentity:
    """The code that made a record is part of its cache directory."""

    def test_source_edit_moves_the_cache_directory(self, tmp_path,
                                                   monkeypatch):
        import repro
        import repro.engine.cache as cache_module
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "fmlr.py").write_text("STEP = 1\n")
        monkeypatch.setattr(repro, "__file__",
                            str(package / "__init__.py"))

        def directory():
            monkeypatch.setattr(cache_module, "_CODE_HASH", None)
            fingerprint = cache_module.config_fingerprint(
                ["include"], None, None, "Shared, Lazy, & Early")
            return ResultCache(str(tmp_path), fingerprint).directory

        before = directory()
        assert directory() == before
        (package / "fmlr.py").write_text("STEP = 2\n")
        assert directory() != before

    def test_old_records_are_not_served(self, small_corpus, tmp_path,
                                        monkeypatch):
        import repro.engine.cache as cache_module
        job = CorpusJob.from_corpus(small_corpus)
        monkeypatch.setattr(cache_module, "_CODE_HASH", "old-code")
        BatchEngine(make_config(tmp_path)).run(job)
        monkeypatch.setattr(cache_module, "_CODE_HASH", "new-code")
        report = BatchEngine(make_config(tmp_path)).run(job)
        assert report.cache_hits == 0


class TestResultCacheDurability:
    """Result-cache publication must be atomic and litter-free: a
    concurrent reader (a serve daemon sharing the cache with a batch
    run) sees the previous complete entry or the new complete entry,
    never partial JSON, and failed writes leave nothing behind."""

    RECORD = {"unit": "a.c", "status": "ok", "cache": "miss"}

    def cache_and_key(self, tmp_path):
        cache = ResultCache(str(tmp_path), "fp")
        return cache, result_key("a.c", "int a;\n")

    def test_put_writes_temp_then_replaces(self, tmp_path,
                                           monkeypatch):
        cache, key = self.cache_and_key(tmp_path)
        final = os.path.join(cache.directory, f"{key}.json")
        observed = {}
        real_dump = json.dump

        def spying_dump(obj, handle, **kwargs):
            observed["target"] = handle.name
            observed["final_visible"] = os.path.exists(final)
            return real_dump(obj, handle, **kwargs)

        monkeypatch.setattr("repro.engine.cache.json.dump",
                            spying_dump)
        cache.put(key, {}, dict(self.RECORD))
        assert observed["target"] != final
        assert observed["final_visible"] is False
        assert cache.get(key)["record"] == self.RECORD

    def test_interrupted_write_leaves_no_artifacts(self, tmp_path,
                                                   monkeypatch):
        cache, key = self.cache_and_key(tmp_path)

        def exploding_dump(obj, handle, **kwargs):
            handle.write('{"partial": ')
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr("repro.engine.cache.json.dump",
                          exploding_dump)
            cache.put(key, {}, dict(self.RECORD))  # must not raise
        assert cache.get(key) is None
        assert os.listdir(cache.directory) == []

    def test_interrupted_write_preserves_previous_entry(
            self, tmp_path, monkeypatch):
        cache, key = self.cache_and_key(tmp_path)
        cache.put(key, {}, dict(self.RECORD))

        def exploding_dump(obj, handle, **kwargs):
            handle.write('{"partial": ')
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr("repro.engine.cache.json.dump",
                          exploding_dump)
            cache.put(key, {}, {"unit": "a.c", "status": "error"})
        assert cache.get(key)["record"] == self.RECORD

    def test_unserializable_record_leaves_no_artifacts(self, tmp_path):
        cache, key = self.cache_and_key(tmp_path)
        cache.put(key, {}, {"bad": {1, 2, 3}})  # sets are not JSON
        assert cache.get(key) is None
        assert os.listdir(cache.directory) == []

    def test_delete(self, tmp_path):
        cache, key = self.cache_and_key(tmp_path)
        cache.put(key, {}, dict(self.RECORD))
        assert cache.delete(key)
        assert not cache.delete(key)
        assert cache.get(key) is None


class TestResultCacheRoundTrip:
    """Cached records replay diagnostics, profile, and timing verbatim
    — a warm answer is indistinguishable from the fresh parse except
    for its ``cache`` field."""

    FILES = {
        "bad.c": "#if defined(CONFIG_X)\n#error conditional failure\n"
                 "#endif\nint ok_part;\n",
        "good.c": "int g;\n",
    }

    def run_twice(self, tmp_path):
        job = CorpusJob(["bad.c", "good.c"], files=dict(self.FILES))
        config = make_config(tmp_path, profile=True)
        cold = BatchEngine(config).run(job)
        warm = BatchEngine(config).run(job)
        return cold, warm

    def test_identical_modulo_cache_field(self, tmp_path):
        cold, warm = self.run_twice(tmp_path)
        assert warm.cache_hits == 2
        cold_by = {r["unit"]: dict(r) for r in cold.records}
        warm_by = {r["unit"]: dict(r) for r in warm.records}
        for unit, cold_record in cold_by.items():
            warm_record = warm_by[unit]
            assert cold_record.pop("cache") == "miss"
            assert warm_record.pop("cache") == "hit"
            assert warm_record == cold_record

    def test_diagnostics_and_profile_survive(self, tmp_path):
        from repro.engine import UnitResult
        cold, warm = self.run_twice(tmp_path)
        cold_by = {r["unit"]: UnitResult(r) for r in cold.records}
        warm_by = {r["unit"]: UnitResult(r) for r in warm.records}
        fresh, cached = cold_by["bad.c"], warm_by["bad.c"]
        # The guarded #error makes the test non-vacuous: there is a
        # real diagnostic and a real profile to round-trip.
        assert fresh.status == STATUS_DEGRADED
        assert len(fresh.diagnostics) == 1
        assert fresh.profile is not None
        assert cached.status == fresh.status
        assert cached.diagnostics == fresh.diagnostics
        assert cached.profile == fresh.profile
        assert cached.record["timing"] == fresh.record["timing"]


class TestEngineExactInvalidation:
    """Editing a header shared by N units invalidates exactly those N
    units and no others, driven through the batch engine directly
    (the serve-side twin lives in tests/test_serve.py)."""

    FILES = {
        "include/shared.h": "#define SHARED 1\n",
        "include/only_a.h": "#include <shared.h>\n#define ONLY_A 2\n",
        "a.c": "#include <only_a.h>\nint a = SHARED + ONLY_A;\n",
        "b.c": "#include <shared.h>\nint b = SHARED;\n",
        "c.c": "int c = 3;\n",
    }
    UNITS = ["a.c", "b.c", "c.c"]

    def run(self, tmp_path, files):
        job = CorpusJob(self.UNITS, include_paths=["include"],
                        files=dict(files))
        return BatchEngine(make_config(tmp_path)).run(job)

    def cache_by_unit(self, report):
        return {r["unit"]: r["cache"] for r in report.records}

    def test_shared_header_edit_hits_exactly_its_dependents(
            self, tmp_path):
        self.run(tmp_path, self.FILES)
        edited = dict(self.FILES)
        edited["include/shared.h"] = "#define SHARED 9\n"
        warm = self.run(tmp_path, edited)
        assert self.cache_by_unit(warm) == {
            "a.c": "miss", "b.c": "miss", "c.c": "hit"}

    def test_second_level_header_edit_hits_only_its_chain(
            self, tmp_path):
        self.run(tmp_path, self.FILES)
        edited = dict(self.FILES)
        edited["include/only_a.h"] = \
            "#include <shared.h>\n#define ONLY_A 7\n"
        warm = self.run(tmp_path, edited)
        assert self.cache_by_unit(warm) == {
            "a.c": "miss", "b.c": "hit", "c.c": "hit"}

    def test_closure_members_match_the_resolver(self):
        superc = SuperC(DictFileSystem(dict(self.FILES)),
                        include_paths=["include"])
        result = superc.parse_source(self.FILES["a.c"], "a.c")
        assert set(result.reads) == {"include/only_a.h",
                                     "include/shared.h"}


class TestIncludeClosureDigest:
    """``include_closure_digest`` is the read-set check: True while
    every file a parse read still has its digest."""

    FILES = {
        "a.c": '#include <x.h>\nint a;\n',
        "include/x.h": '#include "y.h"\nint x;\n',
        "include/y.h": "int y;\n",
        "include/z.h": "int z;\n",
    }

    def reads(self):
        superc = SuperC(DictFileSystem(dict(self.FILES)),
                        include_paths=["include"])
        return superc.parse_source(self.FILES["a.c"], "a.c").reads

    def current(self, files):
        return include_closure_digest(DictFileSystem(files),
                                      self.reads())

    def test_stable(self):
        assert self.current(dict(self.FILES))

    def test_transitive_header_edit_changes_digest(self):
        edited = dict(self.FILES)
        edited["include/y.h"] = "long y;\n"
        assert not self.current(edited)

    def test_unrelated_header_ignored(self):
        edited = dict(self.FILES)
        edited["include/z.h"] = "long z;\n"
        assert self.current(edited)

    def test_failed_probe_is_recorded_missing(self):
        # A quoted include probes the includer's directory first.
        files = dict(self.FILES, **{"a.c": '#include "x.h"\nint a;\n'})
        superc = SuperC(DictFileSystem(files), include_paths=["include"])
        reads = superc.parse_source(files["a.c"], "a.c").reads
        assert "x.h" in reads and reads["x.h"] is None
        assert reads["include/x.h"] is not None
        assert include_closure_digest(DictFileSystem(files), reads)
        files["x.h"] = "int shadow;\n"
        assert not include_closure_digest(DictFileSystem(files), reads)


class TestMetricsStream:
    def test_event_sequence_and_schema(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        stream = MetricsStream(keep_events=True)
        BatchEngine(make_config(tmp_path)).run(job, stream)
        events = stream.events
        assert events[0]["event"] == "run-start"
        assert events[0]["units"] == len(job.units)
        assert events[-1]["event"] == "run-end"
        unit_events = [e for e in events if e["event"] == "unit"]
        assert len(unit_events) == len(job.units)
        for event in unit_events:
            for key in ("unit", "status", "attempt", "cache",
                        "seconds", "timing", "subparsers", "ts",
                        "schema"):
                assert key in event
        by_status = events[-1]["summary"]["by_status"]
        assert set(by_status) <= set(USABLE)
        assert sum(by_status.values()) == len(job.units)
        assert "diagnostics" in events[-1]["summary"]

    def test_jsonl_file_sink(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        path = tmp_path / "metrics.jsonl"
        with MetricsStream(str(path)) as stream:
            BatchEngine(make_config(tmp_path)).run(job, stream)
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "run-start"
        assert parsed[-1]["event"] == "run-end"
        assert all("ts" in event for event in parsed)


class TestFromDirectory:
    def test_scan_and_parse(self, small_corpus, tmp_path):
        root = tmp_path / "tree"
        small_corpus.write_to_directory(str(root))
        job = CorpusJob.from_directory(str(root),
                                       include_paths=["include"])
        assert len(job.units) == len(small_corpus.units)
        assert all(os.path.isabs(unit) for unit in job.units)
        report = BatchEngine(make_config(tmp_path)).run(job)
        assert report.all_ok


class TestReportRollups:
    def test_percentile(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.9) == 3.0
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3
        assert percentile([1, 2, 3, 4, 5], 1.0) == 5

    def test_rollups_and_format(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        report = BatchEngine(make_config(tmp_path)).run(job)
        sub = report.subparser_rollup()
        assert sub["p100"] >= sub["p90"] >= sub["p50"] >= 1
        assert sub["forks"] == sub["merges"] > 0
        latency = report.latency_rollup()
        assert set(latency) == {"lex", "preprocess", "parse"}
        assert latency["parse"]["total"] > 0
        pp = report.preprocessor_rollup()
        assert pp["macro_definitions"]["p100"] >= \
            pp["macro_definitions"]["p50"] > 0
        text = format_report(report, verbose=True)
        assert "units:" in text and "subparsers:" in text
        assert "macro_definitions" in text

    def test_summary_is_json_serializable(self, small_corpus, tmp_path):
        job = CorpusJob.from_corpus(small_corpus)
        report = BatchEngine(make_config(tmp_path)).run(job)
        json.dumps(report.summary())


class TestEngineConfig:
    def test_unknown_optimization_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(optimization="Turbo")

    def test_worker_floor(self):
        assert EngineConfig(workers=0).workers == 1
