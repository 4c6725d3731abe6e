"""Corpus-scale batch scheduling.

The paper's evaluation parses 7,665 Linux compilation units; this
module is the driver that makes such runs practical:

* one :class:`UnitRunner` per run holds the warm :class:`SuperC` and
  its tables; a serial run without a deadline parses every unit on it
  in this process;
* any other run forks a :class:`repro.serve.pool.WorkerPool` of
  ``workers`` processes from that warm process and dispatches one unit
  attempt per worker from ``workers`` threads.  The pool's supervisor
  enforces each attempt's deadline by killing the worker, and a worker
  that dies (hard kill, OOM, a deadline) fails only its own unit;
* failed attempts are retried in waves, up to ``retries`` times, under
  seeded backoff and a per-unit :class:`CrashLoopBreaker`;
* units whose source and recorded read-set are unchanged are answered
  from the :class:`ResultCache` without spawning any work at all.

Results come back as plain record dicts (see ``repro.engine.results``)
and are folded into a :class:`CorpusReport`.
"""

from __future__ import annotations

import glob as glob_module
import importlib
import os
import random
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, \
    Sequence, Union

from repro.cpp import DictFileSystem, FileSystem, RealFileSystem
from repro.engine.cache import (ResultCache, config_fingerprint,
                                include_closure_digest, result_key)
from repro.engine.metrics import MetricsStream
from repro.engine.results import (RETRYABLE_STATUSES, STATUS_CRASHED,
                                  STATUS_ERROR, CorpusReport,
                                  error_record, record_from_result)
from repro.obs.counters import Counters
from repro.parser.fmlr import OPTIMIZATION_LEVELS

if TYPE_CHECKING:
    from repro.serve.pool import WorkerPool

DEFAULT_OPTIMIZATION = "Shared, Lazy, & Early"


class EngineConfig:
    """Scheduling and caching knobs for a batch run."""

    def __init__(self, workers: int = 1,
                 timeout_seconds: float = 0.0,
                 retries: int = 1,
                 optimization: str = DEFAULT_OPTIMIZATION,
                 cache_dir: Optional[str] = None,
                 use_result_cache: bool = True,
                 fault_hook: Union[None, str, Callable] = None,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max: float = 2.0,
                 backoff_jitter: float = 0.5,
                 backoff_seed: int = 0,
                 crash_loop_threshold: int = 3,
                 profile: bool = False):
        if optimization not in OPTIMIZATION_LEVELS:
            raise ValueError(f"unknown optimization {optimization!r}")
        self.workers = max(1, workers)
        # Per-attempt deadline; > 0 runs units on the worker pool,
        # whose supervisor kills an overrunning worker.  0 disables.
        self.timeout_seconds = timeout_seconds
        self.retries = max(0, retries)
        self.optimization = optimization
        self.cache_dir = cache_dir
        self.use_result_cache = use_result_cache
        # Retry pacing: wave N sleeps backoff_delay(self, N - 1).
        self.backoff_base = max(0.0, backoff_base)
        self.backoff_factor = max(1.0, backoff_factor)
        self.backoff_max = max(0.0, backoff_max)
        self.backoff_jitter = max(0.0, backoff_jitter)
        self.backoff_seed = backoff_seed
        # Circuit breaker: a unit whose crash/deadline failures reach
        # this many consecutive attempts is marked STATUS_CRASHED and
        # permanently dropped from retrying (0 disables).
        self.crash_loop_threshold = max(0, crash_loop_threshold)
        # Observability: give the run's SuperC an enabled
        # repro.obs tracer, so each record carries a per-unit profile
        # and the report gains a corpus profile rollup.  Off by
        # default — the null tracer keeps the hot path allocation-free.
        self.profile = profile
        # Test/benchmark instrumentation: called with the unit path
        # before each parse attempt, inside the worker.  A callable or
        # a dotted "pkg.mod:name" string, resolved before any worker
        # forks.
        self.fault_hook = fault_hook


class CrashLoopBreaker:
    """Consecutive-failure circuit breaker.

    Shared fault-tolerance machinery: the batch scheduler opens one per
    unit (a unit that crashes or times out on ``threshold`` consecutive
    attempts is abandoned as ``STATUS_CRASHED``), and the serve worker
    pool opens one over worker deaths (``threshold`` consecutive dead
    workers degrade the daemon to inline parsing instead of forking a
    crash loop).  ``threshold=0`` disables the breaker entirely.
    """

    __slots__ = ("threshold", "consecutive", "tripped", "trips")

    def __init__(self, threshold: int):
        self.threshold = max(0, threshold)
        self.consecutive = 0
        self.tripped = False
        self.trips = 0

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def failure(self) -> bool:
        """Record one failure; True exactly when this one trips the
        breaker (so callers can count ``*.breaker.trip`` once)."""
        self.consecutive += 1
        if self.enabled and not self.tripped \
                and self.consecutive >= self.threshold:
            self.tripped = True
            self.trips += 1
            return True
        return False

    def success(self) -> None:
        """A success resets the streak (but not a tripped breaker —
        closing again is an explicit :meth:`reset`)."""
        self.consecutive = 0

    def reset(self) -> None:
        """Close the breaker (the pool's cooldown probe)."""
        self.consecutive = 0
        self.tripped = False

    def __repr__(self) -> str:
        return (f"CrashLoopBreaker(threshold={self.threshold}, "
                f"consecutive={self.consecutive}, "
                f"tripped={self.tripped})")


def backoff_delay(knobs, retry: int) -> float:
    """Seeded exponential backoff before 1-based retry ``retry``.

    ``knobs`` carries ``backoff_base``/``_factor``/``_max``/
    ``_jitter``/``_seed`` (an :class:`EngineConfig`, a serve
    ``PoolConfig`` or a client transport).  The delay is
    ``base * factor**(retry - 1)`` plus up to ``backoff_jitter`` of
    itself, seeded by ``(seed, retry)``, then capped at ``backoff_max``
    (so delays never shrink while ``jitter <= factor - 1``).
    ``base=0`` disables sleeping entirely.
    """
    if knobs.backoff_base <= 0:
        return 0.0
    rng = random.Random(f"{knobs.backoff_seed}:{retry}")
    return min(knobs.backoff_max,
               knobs.backoff_base
               * knobs.backoff_factor ** max(0, retry - 1)
               * (1.0 + knobs.backoff_jitter * rng.random()))


class CorpusJob:
    """What to parse: a file set, its units, and preprocessor config."""

    def __init__(self, units: Sequence[str],
                 include_paths: Sequence[str] = (),
                 builtins: Optional[Dict[str, str]] = None,
                 extra_definitions: Optional[Dict[str, str]] = None,
                 files: Optional[Dict[str, str]] = None,
                 runner: Union[None, str, Callable] = None,
                 runner_args: Optional[Dict[str, object]] = None):
        self.units = list(units)
        self.include_paths = list(include_paths)
        self.builtins = builtins
        self.extra_definitions = extra_definitions
        # In-memory corpus (DictFileSystem) when set; the real
        # filesystem otherwise.
        self.files = files
        # What to do per unit.  None = the default parse-and-record.
        # A custom runner — ``runner(state, unit) -> record dict``
        # with ``state`` the run's UnitRunner, given as a callable or
        # a dotted "pkg.mod:name" string — reuses the engine's pool,
        # deadline, retry, and metrics machinery for other per-unit
        # work (differential fuzzing, benchmarking).  Custom records
        # must carry the standard record keys (see repro.engine
        # .results); missing unit/attempt/cache/seconds are filled in.
        self.runner = runner
        self.runner_args = dict(runner_args or {})

    @classmethod
    def from_directory(cls, root: str,
                       include_paths: Sequence[str] = (),
                       pattern: str = "**/*.c",
                       builtins: Optional[Dict[str, str]] = None,
                       extra_definitions: Optional[Dict[str, str]] = None
                       ) -> "CorpusJob":
        """Scan a source tree for compilation units.

        Relative include paths are resolved against ``root``, so
        ``superc-batch TREE -I include`` works from anywhere."""
        root = os.path.abspath(root)
        units = sorted(glob_module.glob(os.path.join(root, pattern),
                                        recursive=True))
        resolved = [path if os.path.isabs(path)
                    else os.path.join(root, path)
                    for path in include_paths]
        return cls(units, resolved, builtins=builtins,
                   extra_definitions=extra_definitions)

    @classmethod
    def from_corpus(cls, corpus,
                    builtins: Optional[Dict[str, str]] = None,
                    extra_definitions: Optional[Dict[str, str]] = None
                    ) -> "CorpusJob":
        """Wrap a ``repro.corpus.KernelCorpus`` (in-memory)."""
        return cls(corpus.units, corpus.include_paths,
                   builtins=builtins,
                   extra_definitions=extra_definitions,
                   files=dict(corpus.files))

    def filesystem(self) -> FileSystem:
        if self.files is not None:
            return DictFileSystem(self.files)
        return RealFileSystem()


# ---------------------------------------------------------------------------
# per-unit work
# ---------------------------------------------------------------------------

def _resolve_hook(hook: Union[None, str, Callable]) -> Optional[Callable]:
    if hook is None or callable(hook):
        return hook
    module_name, _sep, attr = hook.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


class UnitRunner:
    """Per-process state that parses one unit at a time.

    Built once per run in the engine's process (filesystem, warm
    SuperC and tables, resolved hook and runner); pool workers fork
    from it.  A custom runner receives it as ``state``.
    """

    def __init__(self, job: CorpusJob, config: EngineConfig):
        # Lazy import keeps ``import repro.engine`` lean.
        from repro.cgrammar import c_tables
        from repro.superc import SuperC
        tracer = None
        if config.profile:
            # One tracer per process, reused across units; SuperC
            # windows it per unit (Tracer.mark/since) when building
            # each result's Profile.
            from repro.obs.tracer import Tracer
            tracer = Tracer()
        self.superc = SuperC(job.filesystem(),
                             include_paths=job.include_paths,
                             builtins=job.builtins,
                             extra_definitions=job.extra_definitions,
                             options=OPTIMIZATION_LEVELS[
                                 config.optimization],
                             tables=c_tables(),
                             tracer=tracer)
        self.hook = _resolve_hook(config.fault_hook)
        self.runner = _resolve_hook(job.runner)
        self.runner_args = job.runner_args
        self.runner_cache: dict = {}

    def run(self, unit: str, attempt: int = 1) -> dict:
        """Parse one unit (or apply the custom runner); never raises.

        A parse's record carries the parse's read-set under
        ``"reads"``, a field the engine pops before anything else
        sees the record."""
        start = time.perf_counter()
        try:
            if self.hook is not None:
                self.hook(unit)
            if self.runner is not None:
                record = dict(self.runner(self, unit))
                record.setdefault("unit", unit)
                record["attempt"] = attempt
                record.setdefault("cache", "miss")
                record.setdefault("seconds",
                                  round(time.perf_counter() - start, 6))
                return record
            superc = self.superc
            text = superc.fs.read(unit)
            if text is None:
                return error_record(unit, STATUS_ERROR,
                                    f"cannot read {unit}", attempt,
                                    time.perf_counter() - start)
            result = superc.parse_source(text, unit)
            record = record_from_result(unit, result, attempt,
                                        time.perf_counter() - start)
            record["reads"] = result.reads
            if superc.tracer.enabled:
                # Profile captured into the record; drop the raw spans
                # so a long-lived tracer stays bounded.
                superc.tracer.reset()
            return record
        except Exception as exc:
            return error_record(unit, STATUS_ERROR, repr(exc), attempt,
                                time.perf_counter() - start)

    # -- the WorkerPool state contract ---------------------------------

    def reset_after_fork(self) -> None:
        """Nothing to detach: workers only parse."""

    def _parse_inline(self, unit: str, text: str) -> dict:
        """A worker's request; the unit is read from the job's files."""
        return self.run(unit)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

class BatchEngine:
    """Schedules a corpus job over workers, caches, and metrics."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()

    def run(self, job: CorpusJob,
            metrics: Optional[MetricsStream] = None,
            tracer: Optional[object] = None) -> CorpusReport:
        """Run the job.  ``tracer`` (a :class:`repro.obs.Tracer`)
        observes the *parent* side: cache-probe and wave spans —
        worker-side per-unit profiles are controlled by
        ``EngineConfig.profile``.  The run's own counters (result
        cache, worker pool) come back as ``report.counters``.
        """
        from repro.obs.tracer import NULL_TRACER
        tracer = tracer if tracer is not None else NULL_TRACER
        config = self.config
        metrics = metrics or MetricsStream()
        wall_start = time.perf_counter()
        counters = Counters()
        # The result cache keys on source + read-set, which a custom
        # runner's outcome may not depend on alone — skip it.
        cache = self._result_cache(job, counters) \
            if config.use_result_cache and job.runner is None else None
        metrics.run_start(len(job.units), config.workers,
                          optimization=config.optimization,
                          result_cache=cache is not None)

        final: Dict[str, dict] = {}
        reads: Dict[str, Optional[dict]] = {}
        pending: List[str] = []
        cache_keys: Dict[str, str] = {}
        fs = job.filesystem()

        def current(unit_reads: dict) -> bool:
            return include_closure_digest(fs, unit_reads)

        with tracer.span("cache-probe", units=len(job.units)):
            for unit in job.units:
                hit = None
                if cache is not None:
                    text = fs.read(unit)
                    if text is not None:
                        key = cache_keys[unit] = result_key(unit, text)
                        blob = cache.get(key, current)
                        if blob is not None:
                            hit = blob["record"]
                if hit is not None:
                    hit = dict(hit)
                    hit["cache"] = "hit"
                    final[unit] = hit
                    metrics.unit(hit)
                else:
                    pending.append(unit)

        if pending:
            runner = UnitRunner(job, config)
            pool = None
            if config.workers > 1 or config.timeout_seconds > 0:
                # Imported here: repro.serve imports repro.engine.
                from repro.serve.pool import PoolConfig, WorkerPool
                # The engine owns retries and its per-unit breaker: the
                # pool replaces a dead worker at once, never recycles a
                # healthy one mid-corpus, and never falls back to
                # parsing in this process.
                pool = WorkerPool(runner, PoolConfig(
                    size=config.workers, max_requests=0,
                    backoff_base=0, breaker_threshold=0),
                    counters=counters).start()
            try:
                self._run_waves(runner, pool, pending, final, reads,
                                metrics, tracer)
            finally:
                if pool is not None:
                    pool.close()

        if cache is not None:
            for unit, record in final.items():
                if record["cache"] == "hit" or unit not in cache_keys \
                        or reads.get(unit) is None:
                    continue
                # Transient outcomes (crash, deadline, circuit-breaker
                # trips) stay uncached so the next run retries them.
                if record["status"] not in RETRYABLE_STATUSES \
                        and record["status"] != STATUS_CRASHED:
                    cache.put(cache_keys[unit], reads[unit], record)

        records = [final[unit] for unit in job.units if unit in final]
        report = CorpusReport(records,
                              wall_seconds=time.perf_counter()
                              - wall_start,
                              workers=config.workers,
                              counters=counters.snapshot())
        metrics.run_end(report.summary())
        return report

    # -- internals --------------------------------------------------------

    def _run_waves(self, runner: UnitRunner,
                   pool: Optional["WorkerPool"], pending: List[str],
                   final: Dict[str, dict],
                   reads: Dict[str, Optional[dict]],
                   metrics: MetricsStream, tracer) -> None:
        """Attempt ``pending`` in waves until every unit is settled or
        the retry budget is spent; records land in ``final`` and their
        read-sets in ``reads``."""
        config = self.config
        breakers: Dict[str, CrashLoopBreaker] = {}
        attempt = 1
        while pending:
            with tracer.span("wave", attempt=attempt,
                             units=len(pending)):
                if pool is None:
                    wave_records = [runner.run(unit, attempt)
                                    for unit in pending]
                else:
                    wave_records = self._dispatch_wave(pool, pending,
                                                       attempt)
            for record in wave_records:
                reads[record["unit"]] = record.pop("reads", None)
                final[record["unit"]] = record
                metrics.unit(record)
            # Crash-loop circuit breaker: a unit that has crashed or
            # timed out on N consecutive attempts is permanently
            # abandoned for this run — retrying a deterministic
            # worker-killer only burns the remaining retry budget.
            threshold = config.crash_loop_threshold
            if threshold:
                for unit in pending:
                    record = final[unit]
                    if record["status"] not in RETRYABLE_STATUSES:
                        continue
                    breaker = breakers.get(unit)
                    if breaker is None:
                        breaker = breakers[unit] = \
                            CrashLoopBreaker(threshold)
                    breaker.failure()
                    if breaker.tripped:
                        tripped = dict(record)
                        tripped["status"] = STATUS_CRASHED
                        tripped["error"] = (
                            f"{record.get('error') or 'failed'} "
                            f"(circuit breaker: {breaker.consecutive} "
                            f"consecutive crash/deadline attempts)")
                        final[unit] = tripped
                        metrics.unit(tripped)
            attempt += 1
            if attempt > config.retries + 1:
                break
            pending = [unit for unit in pending
                       if final[unit]["status"] in RETRYABLE_STATUSES]
            if pending:
                delay = backoff_delay(config, attempt - 1)
                if delay > 0:
                    time.sleep(delay)

    def _result_cache(self, job: CorpusJob,
                      counters: Counters) -> ResultCache:
        fingerprint = config_fingerprint(
            job.include_paths, job.builtins, job.extra_definitions,
            self.config.optimization)
        return ResultCache(self.config.cache_dir, fingerprint, counters)

    def _dispatch_wave(self, pool: "WorkerPool", units: Sequence[str],
                       attempt: int) -> List[dict]:
        """One wave over the pool from ``workers`` dispatcher threads.

        Each unit gets one attempt on its own worker under a fresh
        deadline: a worker that dies or overruns fails that unit only,
        as a retryable record."""
        from repro.serve.admission import Deadline
        timeout = self.config.timeout_seconds
        todo = iter(units)  # a list iterator's next() is atomic
        records: Dict[str, dict] = {}

        def dispatch() -> None:
            for unit in todo:
                start = time.perf_counter()
                try:
                    outcome, record = pool.run_once(unit, "", {},
                                                    Deadline(timeout))
                except Exception as exc:  # e.g. EMFILE on respawn
                    outcome, record = "error", error_record(
                        unit, STATUS_ERROR, repr(exc))
                if outcome != "ok":
                    record["seconds"] = round(
                        time.perf_counter() - start, 6)
                record["attempt"] = attempt
                records[unit] = record

        threads = [threading.Thread(target=dispatch, daemon=True)
                   for _ in range(min(self.config.workers, len(units)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [records[unit] for unit in units]
