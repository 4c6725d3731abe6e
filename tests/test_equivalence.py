"""One record per unit, whatever answers it: the equivalence matrix.

Every entry point and cache tier must give the same record for the
same unit, minus the fields that describe one answer rather than the
unit.  The corpus has computed includes (``#include
INPUT_ARCH_HEADER``, §2.1), so what a unit depends on is only known
once the preprocessor has run.  After an edit to any file the unit's
parse read, the next answer on every path must equal a cold parse of
the edited tree: no path and no tier may answer stale.

Paths: ``repro.parse``; the batch engine serial and with two workers
(cold, then from its result cache); the daemon inline and pooled, over
the Unix socket and HTTP; its memory, disk, token and journal-resumed
tiers.
"""

import pytest

import repro
from repro.api import Config
from repro.corpus import KernelSpec, generate_kernel
from repro.engine import (DEFAULT_OPTIMIZATION, BatchEngine, CorpusJob,
                          EngineConfig, record_from_result)
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.serve import ParseServer, ParseService, ServerState, connect

CORPUS = generate_kernel(KernelSpec(seed=1))
INCLUDE = tuple(CORPUS.include_paths)
UNIT = "drivers/input/input_drv0.c"
# The computed include picks one of these per configuration; a textual
# include walk sees neither.
ARCH_HEADERS = ("include/asm/input_32.h", "include/asm/input_64.h")
# Per-answer fields: what serve_cli's _strip_volatile drops (request
# id, serve timings), what a fresh parse measures anew, and which path
# and tier answered.
VOLATILE = ("id", "op", "serve", "tier", "cache", "timing", "seconds")


def strip(record):
    return {key: value for key, value in record.items()
            if key not in VOLATILE}


def cold(files, unit):
    """The oracle: a cold in-process parse through ``repro.parse``."""
    result = repro.parse(
        files[unit], filename=unit, files=files, include_paths=INCLUDE,
        options=OPTIMIZATION_LEVELS[DEFAULT_OPTIMIZATION])
    return strip(record_from_result(unit, result))


def batch(files, units, cache_dir, workers):
    job = CorpusJob(units, include_paths=INCLUDE, files=dict(files))
    config = EngineConfig(workers=workers, cache_dir=cache_dir,
                          retries=0)
    return {record["unit"]: record
            for record in BatchEngine(config).run(job).records}


def restarted(files, cache_dir, unit):
    """The answer of a fresh daemon state over ``cache_dir`` (its
    journal included) and the tree ``files``."""
    state = ServerState(Config(files=dict(files), include_paths=INCLUDE),
                        cache_dir=cache_dir)
    return state, ParseService(state).handle({"op": "parse",
                                              "path": unit})


class Daemon:
    """A ParseServer with both a Unix socket and an HTTP listener."""

    def __init__(self, tmp, name, workers):
        self.cache_dir = str(tmp / f"{name}-cache")
        self.server = ParseServer(
            config=Config(files=dict(CORPUS.files),
                          include_paths=INCLUDE),
            socket_path=str(tmp / f"{name}.sock"), http_port=0,
            workers=workers, cache_dir=self.cache_dir).start()
        self.socket = connect(f"unix:{self.server.socket_path}")
        self.http = connect(self.server.http.url)

    def close(self):
        self.socket.close()
        self.http.close()
        self.server.close()


@pytest.fixture(scope="module")
def daemons(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("daemons")
    started = {"inline": Daemon(tmp, "inline", 0),
               "pooled": Daemon(tmp, "pooled", 2)}
    yield started
    for daemon in started.values():
        daemon.close()


@pytest.fixture(scope="module")
def reference():
    return {unit: cold(CORPUS.files, unit) for unit in CORPUS.units}


def test_every_path_and_tier_agrees(daemons, reference, tmp_path):
    files = dict(CORPUS.files)
    units = list(CORPUS.units)
    for workers in (1, 2):
        cache_dir = str(tmp_path / f"batch-{workers}")
        for expected_cache in ("miss", "hit"):
            records = batch(files, units, cache_dir, workers)
            for unit in units:
                assert records[unit]["cache"] == expected_cache, unit
                assert strip(records[unit]) == reference[unit], \
                    (workers, expected_cache, unit)
    for name, daemon in daemons.items():
        for unit in units:
            fresh = daemon.socket.parse(unit, fresh=True).record
            assert fresh["cache"] == "miss"
            assert strip(fresh) == reference[unit], (name, unit)
            for session in (daemon.http, daemon.socket):
                hit = session.parse(unit).record
                assert hit["tier"] == "memory"
                assert strip(hit) == reference[unit], (name, unit)
        for unit in units:
            state, answer = restarted(files, daemon.cache_dir, unit)
            assert state.counters.snapshot()["journal.resumed"] \
                == len(units)
            assert answer["tier"] == "disk"
            assert strip(answer) == reference[unit], (name, unit)
    # Token tier, live: a layout-only edit to a header every unit reads.
    daemon = daemons["inline"]
    kernel_h = "include/linux/kernel.h"
    layout = files[kernel_h] + "/* layout only */\n"
    answer = daemon.socket.invalidate(kernel_h, text=layout)
    assert sorted(answer["invalidated"]) == sorted(units)
    for unit in units:
        token = daemon.http.parse(unit).record
        assert token["tier"] == "token"
        assert strip(token) == reference[unit], unit
    daemon.socket.invalidate(kernel_h, text=files[kernel_h])
    # Token tier, journal-resumed: a layout-only edit of the unit
    # itself moves its key past what the journal holds.
    daemon.socket.parse(UNIT, fresh=True)
    edited = dict(files, **{UNIT: files[UNIT] + "\n/* layout */\n"})
    _state, answer = restarted(edited, daemon.cache_dir, UNIT)
    assert answer["tier"] == "token"
    assert strip(answer) == reference[UNIT]


def test_edit_to_any_read_file_reaches_every_path(daemons, tmp_path):
    files = dict(CORPUS.files)
    superc = Config(files=files, include_paths=INCLUDE).build()
    read_set = sorted(superc.parse_source(files[UNIT], UNIT).reads)
    assert set(ARCH_HEADERS) <= set(read_set)
    caches = {workers: str(tmp_path / f"batch-{workers}")
              for workers in (1, 2)}
    for workers, cache_dir in caches.items():
        batch(files, [UNIT], cache_dir, workers)
        assert batch(files, [UNIT], cache_dir, workers)[UNIT][
            "cache"] == "hit"
    for daemon in daemons.values():
        daemon.socket.parse(UNIT)
        assert daemon.http.parse(UNIT).record["tier"] == "memory"
    before = cold(files, UNIT)
    for number, path in enumerate(read_set + [UNIT]):
        files[path] += f"#define EQUIVALENCE_EDIT_{number} {number}\n"
        expected = cold(files, UNIT)
        assert expected != before, f"edit to {path} changes nothing"
        before = expected
        for workers, cache_dir in caches.items():
            record = batch(files, [UNIT], cache_dir, workers)[UNIT]
            assert record["cache"] == "miss", (path, workers)
            assert strip(record) == expected, (path, workers)
        for name, daemon in daemons.items():
            answer = daemon.socket.invalidate(path, text=files[path])
            assert UNIT in answer["invalidated"], (path, name)
            for session in (daemon.http, daemon.socket):
                record = session.parse(UNIT).record
                assert strip(record) == expected, (path, name)
            _state, answer = restarted(files, daemon.cache_dir, UNIT)
            assert strip(answer) == expected, (path, name)


def test_header_created_over_a_failed_probe_reparses(tmp_path):
    """``#include "cfg.h"`` probes the includer's directory first; the
    miss is part of the read-set, so creating the file there must
    re-parse on the batch and the daemon path alike."""
    from repro.cpp import RealFileSystem
    tree = tmp_path / "tree"
    (tree / "drivers").mkdir(parents=True)
    (tree / "include").mkdir()
    (tree / "include" / "cfg.h").write_text("#define CFG 1\n")
    (tree / "drivers" / "a.c").write_text('#include "cfg.h"\n'
                                          "int a = CFG;\n")
    unit = str(tree / "drivers" / "a.c")
    shadow = tree / "drivers" / "cfg.h"
    include = (str(tree / "include"),)

    def oracle():
        result = repro.parse(
            (tree / "drivers" / "a.c").read_text(), filename=unit,
            fs=RealFileSystem(), include_paths=include,
            options=OPTIMIZATION_LEVELS[DEFAULT_OPTIMIZATION])
        return strip(record_from_result(unit, result))

    def batch_run():
        job = CorpusJob([unit], include_paths=include)
        config = EngineConfig(cache_dir=str(tmp_path / "batch"))
        return BatchEngine(config).run(job).records[0]

    server = ParseServer(socket_path=str(tmp_path / "serve.sock"),
                         include_paths=include, workers=2,
                         cache_dir=str(tmp_path / "serve")).start()
    try:
        with connect(f"unix:{server.socket_path}") as session:
            batch_run()
            assert batch_run()["cache"] == "hit"
            assert session.parse(unit).record["cache"] == "miss"
            assert session.parse(unit).record["tier"] == "memory"
            before = oracle()
            shadow.write_text("#define CFG 2\n#define SHADOW 1\n")
            after = oracle()
            assert after != before
            record = batch_run()
            assert record["cache"] == "miss"
            assert strip(record) == after
            answer = session.invalidate(str(shadow))
            assert answer["invalidated"] == [unit]
            record = session.parse(unit).record
            assert record["cache"] == "miss"
            assert strip(record) == after
    finally:
        server.close()
