"""The four perfbench workloads.

Every workload measures the same end-to-end quantities on its own
traffic: set-up time, peak memory, cold parses (a unit parsed from
scratch) and warm answers (served from a cache).  A workload function
fills a :class:`Run`: set-up samples, correctness checks, and one
:class:`Section` per timed stretch — one untraced, plus a traced one
when tracing is asked for.

Cold parses go over the corpus one unit at a time in whole rounds, at
least ``MIN_ROUNDS`` of them, so that every unit has a median.  Warm
answers come in bursts of ``BURST`` between the cold parses, so both
kinds of sample spread over the whole stretch.  After each sample the
section probes the host's speed (``measure.HostSpeed``), and
``measure`` scales every sample by the probes around it.

Inputs come only from the seed: the corpus is ``KernelSpec(seed, ...)``
and every sampled unit or edit target is drawn from ``random.Random``
seeded with it.  The program under test sees only the generated files.
The benchmark reads memory from ``/proc``, so it runs on Linux only.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

import repro.cpp.preprocessor as preprocessor
from repro.corpus import KernelCorpus
from repro.cpp import DictFileSystem
from repro.engine import (DEFAULT_OPTIMIZATION, BatchEngine, CorpusJob,
                          CorpusReport, EngineConfig, record_from_result)
from repro.eval import measure_gcc_like, measure_superc
from repro.parser.ast import Node, StaticChoice
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.qa import DifferentialChecker
from repro.serve import ServeError, connect
from repro.superc import SuperC

import measure
from setup_probe import make_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
LAUNCHER = os.path.join(HERE, "serve_launcher.py")

USABLE = ("ok", "degraded")
# Fields that describe one answer rather than the unit; stripped before
# a served record is compared with an in-process parse.  ``_ms`` is the
# client latency the benchmark attaches to a response.
VOLATILE = ("id", "op", "serve", "timing", "seconds", "cache", "tier",
            "attempt", "profile", "_ms")
SETUP_SAMPLES = 9       # fresh set-ups per run; setup_s is their median
MIN_ROUNDS = 3          # cold rounds per section, at least
BURST = 20              # warm answers per burst
# serve-edit's reader: an open loop at this rate over one connection.
READER_RATE = 100.0
# Each transport numbers its requests from 1; starting every connection
# at its own offset keeps request ids unique across the trace.
ID_OFFSETS = {"control": 0, "hit": 1_000_000, "http": 2_000_000,
              "cold": 3_000_000, "token": 4_000_000, "resume": 5_000_000,
              "reader": 6_000_000, "editor": 7_000_000}


class Section:
    """One timed stretch of a workload, traced or not."""

    def __init__(self, traced: bool, seconds: float):
        self.traced = traced
        self.seconds = seconds
        self.recorder = measure.SpanRecorder() if traced else None
        self.speed = measure.HostSpeed()
        self.cold: List[tuple] = []         # (unit, parse seconds, end)
        self.phases: List[tuple] = []       # (unit, lex, cpp, fmlr) s
        self.attempts: List[int] = []
        self.bursts: List[tuple] = []       # (start, end, latencies ms)
        self.hit_rids: set = set()
        self.hit_units = 0                  # warm answers behind hit_rids
        self.queue_s = 0.0                  # server queue time of hits
        self.extra: Dict[str, List[float]] = {}
        self.lanes: List[tuple] = []        # daemon (pid, name, spans)
        self.late_s: List[float] = []
        self.affected: List[int] = []
        self.serve_stats: Dict[str, float] = {}
        self.result_cache = [0, 0]          # hits, lookups

    @property
    def cold_ms(self) -> List[float]:
        return [seconds * 1000.0 for _unit, seconds, _end in self.cold]

    @property
    def hit_ms(self) -> List[float]:
        return [ms for _start, _end, burst in self.bursts for ms in burst]

    def span(self, name: str, rid: object = None):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, rid)

    def deadline(self, share: float) -> float:
        return time.perf_counter() + self.seconds * share

    def add_burst(self, start: float, burst: List[float]) -> None:
        """A burst of warm latencies that began at ``start`` and ends
        now."""
        self.bursts.append((start, time.perf_counter(), burst))
        self.speed.probe()

    def add_cold(self, unit: str, seconds: float, timing: dict,
                 attempt: int = 1) -> None:
        """A cold parse of ``seconds`` that ended just now."""
        self.cold.append((unit, seconds, time.perf_counter()))
        self.speed.probe()
        self.phases.append((unit, timing["lex"], timing["preprocess"],
                            timing["parse"]))
        self.attempts.append(attempt)


class Run:
    """Everything one workload invocation measures and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.checks: Dict[str, list] = {}   # name -> [passed, failed, why]
        self.attempted = 0
        self.failed = 0
        self.setup_s: List[float] = []
        self.tables_s: List[float] = []
        self.rss_mb = 0.0
        self.pool = (0, 0.0, 0.0)           # pooled pass: units, wall, busy s
        self.counts: Dict[str, float] = {}
        self.unit_tokens: Dict[str, int] = {}
        self.unit_iterations: Dict[str, int] = {}
        self.gcc_ratio: Optional[float] = None
        self.daemons: List["Daemon"] = []
        self.sections = ([Section(False, seconds)] if not trace else
                         [Section(False, seconds / 2),
                          Section(True, seconds / 2)])
        self._dirs = 0
        self._lock = threading.Lock()

    @property
    def traced(self) -> bool:
        return self.sections[-1].traced

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        with self._lock:
            entry = self.checks.setdefault(name, [0, 0, ""])
            if ok:
                entry[0] += 1
            else:
                entry[1] += 1
                entry[2] = entry[2] or detail
        return bool(ok)

    def op(self, ok: bool) -> bool:
        with self._lock:
            self.attempted += 1
            self.failed += not ok
        return bool(ok)

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def stop_daemons(self) -> None:
        """Kill any daemon still running (a workload that raised)."""
        for daemon in self.daemons:
            daemon.kill()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(
            failed == 0 for _passed, failed, _why in self.checks.values())


def timed(deadline: float, minimum: int = 1,
          bursts: Optional[list] = None):
    """Yield 0, 1, 2, ... at least ``minimum`` times (and until
    ``bursts`` holds ``measure.MIN_BURSTS``), and then while another
    iteration would end nearer to ``deadline`` than stopping now."""
    index = 0
    while True:
        start = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        if index >= minimum and now + (now - start) / 2 >= deadline and (
                bursts is None or len(bursts) >= measure.MIN_BURSTS):
            return


def warm_after(cold_wall: float, warm_share: float) -> float:
    """Deadline of the warm bursts that follow a cold parse, so that
    warm work takes ``warm_share`` of the time."""
    return time.perf_counter() + cold_wall * warm_share / (1 - warm_share)


def strip(record: dict) -> dict:
    return {key: value for key, value in record.items()
            if key not in VOLATILE}


# -- memory ---------------------------------------------------------------


def vm_hwm_mb(pids: Sequence[object]) -> float:
    """Summed peak resident memory (``VmHWM``) of live processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # the process ended since it was listed
    return total_kb / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current size, so that
    the set-up probes, the reference parse, the oracle and the pooled
    pass, which come before the measured stretch, do not count."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


# -- shared steps ---------------------------------------------------------


def probe_setup(run: Run, workload: str, samples: int) -> List[float]:
    """Fresh in-process set-ups (``setup_probe.py``), each with an empty
    cache directory; returns their times from spawn to ready."""
    ready_times = []
    for _ in range(samples):
        env = dict(os.environ, REPRO_CACHE_DIR=run.fresh_dir("setup"))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, SETUP_PROBE, workload, str(run.seed)],
            stdout=subprocess.PIPE, env=env, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=120)
        if run.check("set-up probe", code == 0 and line, f"exit {code}"):
            run.tables_s.append(json.loads(line)["tables_s"])
            ready_times.append(ready)
    return ready_times


def reference(run: Run, files: Dict[str, str], units: Sequence[str],
              include_paths: Sequence[str], counts: bool) -> Dict[str, dict]:
    """In-process parse of every unit: records to compare served and
    pooled answers against and, with ``counts``, the per-layer counts
    of the corpus (the same on every run of a seed)."""
    superc = SuperC(DictFileSystem(files), include_paths=include_paths,
                    options=OPTIMIZATION_LEVELS[DEFAULT_OPTIMIZATION])
    records = {}
    tokens = [0]
    lex_logical_lines = preprocessor.lex_logical_lines

    def counting(text, filename="<input>"):
        lines = lex_logical_lines(text, filename)
        tokens[0] += sum(len(line) for line in lines)
        return lines

    preprocessor.lex_logical_lines = counting
    try:
        for unit in units:
            tokens[0] = 0
            result = superc.parse_file(unit)
            records[unit] = record_from_result(unit, result,
                                               seconds=result.timing.total)
            run.op(run.check("reference parse usable",
                             result.status in USABLE,
                             f"{unit}: {result.status}"))
            if counts:
                _count(run, unit, result, tokens[0])
    finally:
        preprocessor.lex_logical_lines = lex_logical_lines
    if counts:
        run.check("fmlr.kill_switch_trips == 0",
                  run.counts["fmlr.kill_switch_trips"] == 0)
        run.counts["superc_s"] = sum(r["timing"]["total"]
                                     for r in records.values())
    return records


def _count(run: Run, unit: str, result, tokens: int) -> None:
    stats = result.parse.stats.as_counters()
    bdd = result.unit.manager.stats()
    cpp = result.unit.stats.as_dict()
    values = {
        "lexer.tokens": tokens,
        "cpp.invocations": cpp["invocations"],
        "cpp.hoisted_invocations": cpp["hoisted_invocations"],
        "cpp.includes": cpp["includes"],
        "cpp.conditionals": cpp["conditionals"],
        "cpp.token_pastings": cpp["token_pastings"],
        "bdd.nodes_created": bdd["nodes_created"],
        "bdd.apply_calls": bdd["apply_calls"],
        "bdd.apply_cache_hits": bdd["apply_cache_hits"],
        "fmlr.iterations": stats["fmlr.iterations"],
        "fmlr.forks": stats["fmlr.forks"],
        "fmlr.merges": stats["fmlr.merges"],
        "fmlr.action_lookups": stats["fmlr.action_lookups"],
        "fmlr.shared_reduces": stats["fmlr.shared_reduces"],
        "fmlr.lazy_shifts": stats["fmlr.lazy_shifts"],
        "fmlr.kill_switch_trips": stats["fmlr.kill_switch_trips"],
    }
    values["fmlr.ast_nodes"], values["fmlr.choice_nodes"] = \
        ast_sizes(result.ast)
    counts = run.counts
    for name, value in values.items():
        counts[name] = counts.get(name, 0) + value
    counts["fmlr.max_subparsers"] = max(
        counts.get("fmlr.max_subparsers", 0), stats["fmlr.max_subparsers"])
    run.unit_tokens[unit] = tokens
    run.unit_iterations[unit] = stats["fmlr.iterations"]


def ast_sizes(value) -> tuple:
    """(nodes, static choice nodes) of an AST, counting each shared
    subtree once: choice branches share subtrees, and walking them as a
    tree grows exponentially with the Figure 6 entries."""
    nodes = choices = 0
    seen = set()
    stack = [value]
    while stack:
        current = stack.pop()
        if not isinstance(current, (Node, StaticChoice, tuple)) \
                or id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, Node):
            nodes += 1
            stack.extend(current.children)
        elif isinstance(current, StaticChoice):
            nodes += 1
            choices += 1
            stack.extend(branch for _cond, branch in current.branches)
        else:
            stack.extend(current)
    return nodes, choices


def oracle(run: Run, files: Dict[str, str], units: Sequence[str],
           include_paths: Sequence[str]) -> None:
    """The differential oracle on a seeded sample of four units."""
    checker = DifferentialChecker(files, include_paths=include_paths,
                                  max_configs=4)
    for unit in sorted(run.rng.sample(list(units), 4)):
        outcome = checker.check_source(files[unit], unit, seed=run.seed)
        detail = repr(outcome.disagreements[0]) \
            if outcome.disagreements else ""
        run.check("oracle agrees", outcome.ok, f"{unit}: {detail}")


def gcc_ratio(run: Run, corpus: KernelCorpus) -> None:
    """SuperC's reference-pass time over one gcc-like pass (the paper's
    yardstick); measured in traced runs only."""
    gcc = measure_gcc_like(corpus).total
    run.gcc_ratio = run.counts["superc_s"] / gcc if gcc else None


def check_batch(run: Run, report: CorpusReport,
                serial: CorpusReport, kind: str) -> None:
    run.check(f"{kind} statuses equal serial",
              report.statuses() == serial.statuses())
    run.check(f"{kind} subparser rollup equals serial",
              report.subparser_rollup() == serial.subparser_rollup())


@contextlib.contextmanager
def tracing(section: Section):
    """Install the load-side wrappers for a traced section."""
    if section.recorder is None:
        yield
        return
    uninstall = measure.install(section.recorder, measure.LOAD_WRAPPERS)
    try:
        yield
    finally:
        uninstall()


# -- batch workloads ------------------------------------------------------


def batch_prepare(run: Run, workload: str):
    """Set-up, serial reference, oracle, and a pooled caching pass that
    primes the warm answers and must agree with the serial one."""
    corpus = make_corpus(workload, run.seed)
    files, units, include = corpus.files, corpus.units, corpus.include_paths
    run.setup_s.extend(probe_setup(run, workload, SETUP_SAMPLES))
    records = reference(run, files, units, include, counts=True)
    oracle(run, files, units, include)
    job = CorpusJob.from_corpus(corpus)
    cache_dir = run.fresh_dir("cache")
    serial = CorpusReport([records[unit] for unit in units])
    start = time.perf_counter()
    pooled = BatchEngine(EngineConfig(workers=2,
                                      cache_dir=cache_dir)).run(job)
    run.pool = (pooled.units, time.perf_counter() - start,
                pooled.cpu_seconds)
    check_batch(run, pooled, serial, "pooled pass")
    reset_peak_rss()
    return corpus, job, cache_dir, serial


def warm_bursts(run: Run, section: Section, job: CorpusJob,
                engine: BatchEngine, until: float) -> None:
    """Bursts of serial engine passes answered wholly from the primed
    result cache until ``until``; one latency sample per pass (its time
    per unit)."""
    for _burst in timed(until):
        burst = []
        start = time.perf_counter()
        for _pass in range(BURST):
            rid = f"warm-{len(section.hit_rids)}"
            with section.span("batch.warm_pass", rid):
                begin = time.perf_counter()
                report = engine.run(job)
                wall = time.perf_counter() - begin
            burst.append(wall * 1000.0 / report.units)
            section.hit_rids.add(rid)
            section.hit_units += report.units
            section.result_cache[0] += report.cache_hits
            section.result_cache[1] += report.units
            for record in report.records:
                run.op(record["status"] in USABLE)
                run.check("warm pass answers from the cache",
                          record["cache"] == "hit", record["unit"])
        section.add_burst(start, burst)


def kernel_batch(run: Run) -> None:
    """Whole-tree batch parsing: rounds of cold engine runs over one unit
    each, every run followed by bursts of whole-tree passes answered
    from the result cache (25% of the time).  One unit per run puts a
    host probe beside every cold sample."""
    corpus, job, cache_dir, serial = batch_prepare(run, "kernel-batch")
    cold = BatchEngine(EngineConfig(workers=1, use_result_cache=False))
    warm = BatchEngine(EngineConfig(workers=1, cache_dir=cache_dir))
    singles = [CorpusJob([unit], job.include_paths, files=job.files)
               for unit in job.units]
    for section in run.sections:
        section.speed.probe()
        with tracing(section):
            for _round in timed(section.deadline(1.0), MIN_ROUNDS,
                                section.bursts):
                records = []
                for single in singles:
                    rid = f"cold-{len(section.phases)}"
                    with section.span("batch.cold_unit", rid):
                        start = time.perf_counter()
                        record = cold.run(single).records[0]
                        wall = time.perf_counter() - start
                    run.op(record["status"] in USABLE)
                    section.add_cold(record["unit"], record["seconds"],
                                     record["timing"], record["attempt"])
                    records.append(record)
                    warm_bursts(run, section, job, warm,
                                warm_after(wall, 0.25))
                check_batch(run, CorpusReport(records), serial, "cold round")
    run.rss_mb = vm_hwm_mb(["self"])
    if run.traced:
        gcc_ratio(run, corpus)


def variability_heavy(run: Run) -> None:
    """Figure-6-heavy units parsed one at a time in process through
    ``repro.eval.measure_superc``, each followed by bursts of engine
    passes answered from the result cache (15% of the time)."""
    corpus, job, cache_dir, _serial = batch_prepare(run,
                                                    "variability-heavy")
    singles = [KernelCorpus(corpus.spec, corpus.files, [unit],
                            corpus.config_variables)
               for unit in corpus.units]
    warm = BatchEngine(EngineConfig(workers=1, cache_dir=cache_dir))
    for section in run.sections:
        section.speed.probe()
        with tracing(section):
            for _round in timed(section.deadline(1.0), MIN_ROUNDS,
                                section.bursts):
                for single in singles:
                    rid = f"cold-{len(section.phases)}"
                    with section.span("superc.pass", rid):
                        start = time.perf_counter()
                        sample = measure_superc(single).samples[0]
                        wall = time.perf_counter() - start
                    run.op(True)
                    section.add_cold(sample.unit, wall, {
                        "lex": sample.lex, "preprocess": sample.preprocess,
                        "parse": sample.parse})
                    warm_bursts(run, section, job, warm,
                                warm_after(wall, 0.15))
    run.rss_mb = vm_hwm_mb(["self"])
    if run.traced:
        gcc_ratio(run, corpus)


# -- the daemon -----------------------------------------------------------


class Daemon:
    """One ``superc-serve`` process over a tree on disk: a Unix socket
    and an HTTP listener, two pool workers, a result-cache directory."""

    def __init__(self, run: Run, tree: str, cache_dir: str,
                 section: Optional[Section] = None):
        self.run = run
        self.tree = tree
        self.cache_dir = os.path.abspath(cache_dir)
        self.section = section
        self.spans_file = None
        if section is not None and section.traced:
            self.spans_file = os.path.abspath(
                os.path.join(run.fresh_dir("spans"), "spans.json"))
        # Relative to the benchmark's working directory (the checkout
        # root), which keeps the path within AF_UNIX's length limit.
        self.socket = os.path.join(os.path.relpath(tree), "d.sock")
        self.http_url = None
        self.proc = None

    def start(self) -> float:
        """Spawn the daemon; returns seconds until the first ping is
        answered."""
        argv = [sys.executable, LAUNCHER]
        if self.spans_file:
            argv += ["--spans", self.spans_file]
        argv += ["--", "--listen", "unix:d.sock",
                 "--listen", "http://127.0.0.1:0", "--workers", "2",
                 "--cache-dir", self.cache_dir, "-I", "include"]
        env = dict(os.environ, REPRO_CACHE_DIR=self.cache_dir)
        log_path = os.path.join(self.run.fresh_dir("log"), "daemon.log")
        start = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(argv, cwd=self.tree, env=env,
                                         stdout=subprocess.DEVNULL,
                                         stderr=log)
        self.run.daemons.append(self)
        while not self._answers_ping():
            if self.proc.poll() is not None or \
                    time.perf_counter() - start > 60:
                raise RuntimeError(f"daemon did not start; see {log_path}")
            time.sleep(0.002)
        ready = time.perf_counter() - start
        with open(log_path) as log:
            for line in log:
                if "listening on http://" in line:
                    self.http_url = line.split("listening on ")[1].strip()
        return ready

    def _answers_ping(self) -> bool:
        if not os.path.exists(self.socket):
            return False
        try:
            with connect("unix:" + self.socket, retries=0,
                         timeout=10.0) as session:
                return session.ping().get("status") == "ok"
        except ServeError:
            return False

    def session(self, kind: str, connection: str):
        url = self.http_url if kind == "http" else "unix:" + self.socket
        session = connect(url, retries=0, timeout=120.0)
        session.transport._next_id = ID_OFFSETS[connection]
        return session

    def rss_mb(self) -> float:
        """Peak resident memory of the daemon and its workers."""
        pids = [self.proc.pid]
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, task,
                                       "children")) as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
            except OSError:
                pass  # the thread ended since the listing
        return vm_hwm_mb(pids)

    def stats(self) -> dict:
        with self.session("unix", "control") as session:
            return session.stats()

    def stop(self) -> None:
        with self.session("unix", "control") as session:
            session.shutdown()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.run.check("daemon exits cleanly", self.proc.returncode == 0,
                       f"exit {self.proc.returncode}")
        if self.spans_file and os.path.exists(self.spans_file):
            pid, spans = measure.read_spans(self.spans_file)
            self.section.lanes.append((pid, "superc-serve", spans))

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_prepare(run: Run, workload: str):
    """Set-up (fresh daemon starts; an in-process probe for the table
    time when traced), the tree on disk, the reference records and the
    oracle."""
    corpus = make_corpus(workload, run.seed)
    units, include = corpus.units, corpus.include_paths
    tree = run.fresh_dir("tree")
    corpus.write_to_directory(tree)
    if run.traced:
        probe_setup(run, workload, samples=1)
    for _ in range(SETUP_SAMPLES):
        daemon = Daemon(run, tree, run.fresh_dir("cache"))
        run.setup_s.append(daemon.start())
        daemon.stop()
    records = reference(run, corpus.files, units, include, counts=True)
    oracle(run, corpus.files, units, include)
    return corpus, tree, records


def request(run: Run, section: Section, session, unit: str,
            expected: Optional[dict], kind: str, tier: str,
            fresh: bool = False, since: Optional[float] = None) -> dict:
    """One timed parse request, checked for status, tier (``"miss"``:
    parsed, not served from a cache) and record.  The client latency,
    from ``since`` when given, comes back under ``_ms``."""
    with section.span(f"client.{kind}") as span:
        start = time.perf_counter()
        response = session.parse(unit, fresh=fresh).record
        end = time.perf_counter()
    response["_ms"] = (end - (start if since is None else since)) * 1000.0
    run.op(response.get("status") in USABLE)
    if tier == "miss":
        run.check(f"{kind} answer is a miss",
                  response.get("cache") == "miss", unit)
    else:
        run.check(f"{kind} answers from the {tier} tier",
                  response.get("tier") == tier,
                  f"{unit}: {response.get('tier')}")
    if expected is not None:
        run.check(f"{kind} record equals in-process parse",
                  strip(response) == strip(expected), unit)
    if span is not None:
        span["rid"] = response.get("id")
        if tier == "miss":
            _worker_spans(section, span, [response])
    return response


def prime(run: Run, section: Section, session, units: Sequence[str],
          records: Dict[str, dict]) -> None:
    """Send a parse request for every unit at once and collect them (the
    daemon's two pool workers take two at a time); each must be a miss
    equal to the in-process parse.  The pass is the pooled rate of the
    per-layer report."""
    transport = session.transport
    with section.span("client.prime") as span:
        start = time.perf_counter()
        ids = [transport.submit("parse", path=unit) for unit in units]
        responses = transport.drain(ids)
        wall = time.perf_counter() - start
    run.pool = (len(units), wall,
                sum((r.get("timing") or {}).get("total", 0.0)
                    for r in responses))
    for unit, response in zip(units, responses):
        run.op(response.get("status") in USABLE)
        run.check("prime answer is a miss",
                  response.get("cache") == "miss", unit)
        run.check("prime record equals in-process parse",
                  strip(response) == strip(records[unit]), unit)
    if span is not None:
        span["rid"] = ids[0]
        _worker_spans(section, span, responses)


def _worker_spans(section: Section, parent: dict,
                  responses: Sequence[dict]) -> None:
    """Attach the pool workers' lex/preprocess/parse times as child
    spans (workers are not wrapped): one lane per worker, responses
    alternating between them as the two workers take them."""
    cursors = [parent["start"], parent["start"]]
    for index, response in enumerate(responses):
        lane = index % 2
        for name, key in (("lexer.lex", "lex"),
                          ("cpp.preprocess", "preprocess"),
                          ("fmlr.parse", "parse")):
            start = cursors[lane]
            cursors[lane] = min(parent["end"], start + (
                response.get("timing") or {}).get(key, 0.0))
            section.recorder.add(f"worker.{name}", start, cursors[lane],
                                 parent=parent, rid=response.get("id"),
                                 tid=f"worker-{lane}")


def _hit(section: Section, response: dict) -> None:
    section.hit_rids.add(response.get("id"))
    section.hit_units += 1
    section.queue_s += (response.get("serve") or {}).get(
        "queue_seconds", 0.0)


def _cold(section: Section, unit: str, response: dict) -> None:
    section.add_cold(unit, response["_ms"] / 1000.0, response["timing"],
                     response.get("attempt", 1))


def _serve_stats(section: Section, stats: dict) -> None:
    """Fold one daemon's ``stats`` into the section: result-cache use
    over every daemon, the request hit rate of the first, and the
    entries the journal gave back on a restart."""
    cache = stats.get("result_cache") or {}
    section.result_cache[0] += cache.get("hits", 0)
    section.result_cache[1] += cache.get("hits", 0) + cache.get("misses", 0)
    total = stats["cache_hits"] + stats["cache_misses"]
    section.serve_stats.setdefault(
        "cache_hit_rate", stats["cache_hits"] / total if total else 0.0)
    section.serve_stats["journal_resumed"] = max(
        section.serve_stats.get("journal_resumed", 0),
        (stats.get("journal") or {}).get("resumed", 0))


def serve_warm(run: Run) -> None:
    """The daemon's read path: fresh (cache-bypassing) requests one at a
    time, each followed by three bursts of memory hits over the Unix
    socket; then hits over HTTP, layout-only edits answered from the
    token tier, and restarts answered from disk."""
    corpus, tree, records = serve_prepare(run, "serve-warm")
    units = corpus.units
    kernel_h = "include/linux/kernel.h"
    first, rest = corpus.files[kernel_h].split("\n", 1)
    for section in run.sections:
        cache_dir = run.fresh_dir("cache")
        daemon = Daemon(run, tree, cache_dir, section)
        daemon.start()
        with daemon.session("unix", "cold") as cold, \
                daemon.session("unix", "hit") as warm:
            prime(run, section, cold, units, records)
            section.speed.probe()
            hits = itertools.cycle(units)
            for _round in timed(section.deadline(0.8), MIN_ROUNDS,
                                section.bursts):
                for unit in units:
                    _cold(section, unit, request(
                        run, section, cold, unit, records[unit], "fresh",
                        "miss", fresh=True))
                    for _burst in range(3):
                        burst = []
                        start = time.perf_counter()
                        for hit in itertools.islice(hits, BURST):
                            response = request(run, section, warm, hit,
                                               records[hit], "hit",
                                               "memory")
                            _hit(section, response)
                            burst.append(response["_ms"])
                        section.add_burst(start, burst)
        with daemon.session("http", "http") as session:
            for index in timed(section.deadline(0.08)):
                unit = units[index % len(units)]
                response = request(run, section, session, unit,
                                   records[unit], "http-hit", "memory")
                section.extra.setdefault("hit_http_ms", []).append(
                    response["_ms"])
        with daemon.session("unix", "token") as session:
            for edit in timed(section.deadline(0.12)):
                text = f"{first} /* layout edit {edit} */\n{rest}"
                answer = session.invalidate(kernel_h, text=text)
                run.op(answer.get("status") == "ok")
                section.affected.append(answer.get("count", 0))
                run.check("layout edit reaches every unit",
                          answer.get("count") == len(units))
                for unit in units:
                    response = request(run, section, session, unit,
                                       records[unit], "token", "token")
                    section.extra.setdefault("token_ms", []).append(
                        response["_ms"])
        _serve_stats(section, daemon.stats())
        run.rss_mb = max(run.rss_mb, daemon.rss_mb())
        daemon.stop()
        for _restart in range(2):
            daemon = Daemon(run, tree, cache_dir, section)
            daemon.start()
            with daemon.session("unix", "resume") as session:
                for unit in units:
                    response = request(run, section, session, unit,
                                       records[unit], "resume", "disk")
                    section.extra.setdefault("resume_ms", []).append(
                        response["_ms"])
            _serve_stats(section, daemon.stats())
            daemon.stop()
    if run.traced:
        gcc_ratio(run, corpus)


def serve_edit(run: Run) -> None:
    """Header edits beside reads: an editor appends a macro to one
    subsystem header at a time and re-requests the dependent units in
    turn, while a reader asks for the units of a subsystem that is never
    edited, on a fixed schedule."""
    corpus, tree, records = serve_prepare(run, "serve-edit")
    units, include = corpus.units, corpus.include_paths
    by_subsystem: Dict[str, List[str]] = {}
    for unit in units:
        by_subsystem.setdefault(unit.split("/")[1], []).append(unit)
    subsystems = sorted(by_subsystem)
    quiet = run.rng.choice(subsystems)
    edited = [name for name in subsystems if name != quiet]
    edits = 0
    for section in run.sections:
        files = dict(corpus.files)
        daemon = Daemon(run, tree, run.fresh_dir("cache"), section)
        daemon.start()
        with daemon.session("unix", "editor") as editor, \
                daemon.session("unix", "reader") as reader:
            prime(run, section, editor, units, records)
            section.speed.probe()
            stop = threading.Event()
            thread = threading.Thread(
                target=_reader, args=(run, section, reader,
                                      by_subsystem[quiet], records, stop))
            thread.start()
            try:
                # Whole rotations over the edited subsystems, so each
                # unit is re-parsed equally often.
                for _rotation in timed(section.deadline(1.0), MIN_ROUNDS,
                                       section.bursts):
                    if not thread.is_alive():
                        break  # the reader failed; its check says why
                    for subsystem in edited:
                        edits += 1
                        _edit_cycle(run, section, editor, files, edits,
                                    subsystem, by_subsystem[subsystem])
            finally:
                stop.set()
                thread.join(timeout=600)
            run.check("reader finished", not thread.is_alive())
            final = reference(run, files,
                              [u for name in edited
                               for u in by_subsystem[name]],
                              include, counts=False)
            for unit in units:
                request(run, section, editor, unit,
                        final.get(unit, records[unit]), "final", "memory")
            _serve_stats(section, daemon.stats())
            run.rss_mb = max(run.rss_mb, daemon.rss_mb())
        daemon.stop()
    if run.traced:
        gcc_ratio(run, corpus)


def _edit_cycle(run: Run, section: Section, editor, files: Dict[str, str],
                edit: int, subsystem: str, dependents: List[str]) -> None:
    """Append a macro to one subsystem header, then re-request its
    dependent units one at a time (pipelining them would queue the
    reader's hits behind the parse backlog)."""
    path = f"include/linux/{subsystem}.h"
    files[path] += f"#define BENCH_EDIT_{edit} {edit}\n"
    with section.span("client.edit"):
        answer = editor.invalidate(path, text=files[path])
    run.op(answer.get("status") == "ok")
    section.affected.append(answer.get("count", 0))
    run.check("edit invalidates exactly its subsystem",
              sorted(answer.get("invalidated") or []) == dependents, path)
    for unit in dependents:
        _cold(section, unit, request(run, section, editor, unit, None,
                                     "reparse", "miss"))


def _reader(run: Run, section: Section, session, units: Sequence[str],
            records: Dict[str, dict], stop: threading.Event) -> None:
    """Open loop over bursts: burst ``b`` is due at ``start + b * BURST
    / READER_RATE`` and sends its ``BURST`` requests back to back.  The
    first counts from when the burst was due, so a stall also charges
    it; the rest count from when they were sent."""
    start = time.perf_counter()
    requests = itertools.cycle(units)
    try:
        for index in itertools.count():
            if stop.is_set():
                return
            due = start + index * BURST / READER_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            section.late_s.append(time.perf_counter() - due)
            burst: List[float] = []
            for unit in itertools.islice(requests, BURST):
                response = request(run, section, session, unit,
                                   records[unit], "reader", "memory",
                                   since=None if burst else due)
                _hit(section, response)
                burst.append(response["_ms"])
            section.add_burst(due, burst)
    except Exception as exc:  # a dead reader must fail the run, not vanish
        run.check("reader ran to the end", False, repr(exc))


WORKLOADS = {
    "kernel-batch": kernel_batch,
    "variability-heavy": variability_heavy,
    "serve-warm": serve_warm,
    "serve-edit": serve_edit,
}
