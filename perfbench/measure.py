"""Statistics, host-speed probes, benchmark-side spans and the Chrome
trace for perfbench.

The end-to-end numbers are built for a shared host, where other tenants
slow both vCPUs, unequally and from moment to moment, by 10-60% for a
fraction of a second to many minutes.  Between timed samples the
benchmark probes how fast the host runs the interpreter
(:class:`HostSpeed`), and scales every sample to a host on which one
probe takes ``PROBE_REF_S``; on such a host the scaled times read as
measured.  A program change cannot move the probe, which is benchmark
code, so a slower program still reads slower; a busier host does not.

Spans are recorded by the benchmark's own wrappers around public
functions of the program (see ``LOAD_WRAPPERS`` and ``DAEMON_WRAPPERS``),
never by instrumentation inside the program.  Each span keeps its name,
start, end, parent span and the id of the request it belongs to; spans
stay in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

from repro.engine import percentile

# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
# Bursts a section needs, so that ten burst medians lie above hit_ms.
MIN_BURSTS = 20
# One probe's time on the reference host (a quiet 2-vCPU VM).
PROBE_REF_S = 0.002


def tail_percentile(n: int) -> float:
    """The highest candidate percentile that still has at least ten
    samples above it (0.5 when even the median has fewer)."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if round(n * (1.0 - p), 6) >= 10:  # 100 * (1 - 0.9) < 10 in floats
            best = p
    return best


def checked_percentile(values: Sequence[float], p: float) -> float:
    """``percentile(values, p)``, refused (``ValueError``) when fewer
    than ten samples lie above ``p``; the median is always allowed."""
    if p > tail_percentile(len(values)):
        raise ValueError(f"p{p * 100:g} of {len(values)} samples has "
                         f"fewer than ten samples above it")
    return percentile(values, p)


def summarize(values: Sequence[float]) -> dict:
    """n, p50 and the tail percentile the sample count supports."""
    tail = tail_percentile(len(values))
    return {"n": len(values), "p50": percentile(values, 0.5),
            "tail": f"p{tail * 100:g}",
            "tail_value": checked_percentile(values, tail)}


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    table: Dict[tuple, int] = {}
    items: List[tuple] = []
    for i in range(5000):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + 1
        items.append(key)
        if len(items) > 50:
            del items[:40]
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs the interpreter, probed between timed
    samples by the threads that take them.

    A probe is the mean of :func:`calibration_s` run unpinned and pinned
    to each of the first two allowed CPUs: the load process, the daemon
    and its workers may run on either vCPU, and the two slow down
    unequally.
    """

    def __init__(self, min_gap: float = 0.05):
        self.min_gap = min_gap
        self.probes: List[Tuple[float, float]] = []   # (time, seconds)
        self._lock = threading.Lock()

    def probe(self) -> None:
        """Probe, unless the last probe is under ``min_gap`` seconds
        old (which bounds the probes' share of the run).  Affinity is
        per thread, so pinning never moves another thread."""
        with self._lock:
            now = time.perf_counter()
            if self.probes and now - self.probes[-1][0] < self.min_gap:
                return
            allowed = os.sched_getaffinity(0)
            times = [calibration_s()]
            try:
                for cpu in sorted(allowed)[:2]:
                    os.sched_setaffinity(0, {cpu})
                    times.append(calibration_s())
            finally:
                os.sched_setaffinity(0, allowed)
            self.probes.append((now, statistics.mean(times)))

    def scale(self, start: float, end: float) -> float:
        """The factor to a reference-host time for a sample taken from
        ``start`` to ``end``: ``PROBE_REF_S`` over the mean of the last
        probe before it and the first probe after it."""
        stamps = [stamp for stamp, _seconds in self.probes]
        near = [self.probes[i][1] for i in (
            bisect.bisect_right(stamps, start) - 1,
            bisect.bisect_left(stamps, end)) if 0 <= i < len(stamps)]
        return PROBE_REF_S / statistics.mean(near)

    def median_ms(self) -> float:
        return statistics.median(s for _t, s in self.probes) * 1000.0


def units_per_s(samples: Sequence[tuple],
                speed: Optional[HostSpeed]) -> float:
    """Units per second from each unit's median parse time.  A sample is
    ``(unit, seconds, end time)``; with ``speed`` it is scaled to the
    reference host first."""
    per_unit: Dict[str, List[float]] = {}
    for unit, seconds, end in samples:
        factor = speed.scale(end - seconds, end) if speed else 1.0
        per_unit.setdefault(unit, []).append(seconds * factor)
    return len(per_unit) / sum(statistics.median(times)
                               for times in per_unit.values())


def hit_ms(bursts: Sequence[tuple], speed: Optional[HostSpeed]) -> float:
    """The median of the burst medians.  A burst is ``(start, end,
    latencies in ms)``; with ``speed`` its median is scaled to the
    reference host first."""
    if len(bursts) < MIN_BURSTS:
        raise ValueError(f"{len(bursts)} bursts; the median needs "
                         f"{MIN_BURSTS}")
    return statistics.median(
        statistics.median(latencies)
        * (speed.scale(start, end) if speed else 1.0)
        for start, end, latencies in bursts)


class SpanRecorder:
    """In-memory spans from any number of threads.

    A span's parent is the innermost open span on the same thread; its
    request id is given explicitly or inherited from the parent, so all
    spans of one request share it.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid: object = None) -> "_OpenSpan":
        return _OpenSpan(self, name, rid)

    def add(self, name: str, start: float, end: float, parent: dict,
            rid: object, tid: object) -> dict:
        """Record a span measured elsewhere (a pool worker's timing) on
        its own thread lane ``tid``."""
        span = {"id": next(self._ids), "name": name, "start": start,
                "end": end, "parent": parent["id"], "rid": rid, "tid": tid}
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, owner: object, attr: str, name: str) -> Callable:
        """Replace ``owner.attr`` by a span-recording wrapper; returns a
        function that restores the original."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)


class _OpenSpan:
    __slots__ = ("recorder", "name", "rid", "span")

    def __init__(self, recorder: SpanRecorder, name: str, rid: object):
        self.recorder = recorder
        self.name = name
        self.rid = rid
        self.span: Optional[dict] = None

    def __enter__(self) -> dict:
        recorder = self.recorder
        stack = recorder._stack()
        parent = stack[-1] if stack else None
        rid = self.rid
        if rid is None and parent is not None:
            rid = parent["rid"]
        self.span = {"id": next(recorder._ids), "name": self.name,
                     "start": time.perf_counter(), "end": 0.0,
                     "parent": parent["id"] if parent else None,
                     "rid": rid, "tid": threading.get_ident()}
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> bool:
        span = self.span
        span["end"] = time.perf_counter()
        stack = self.recorder._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self.recorder._lock:
            self.recorder.spans.append(span)
        return False


# Public functions wrapped in the load process and in the daemon:
# (module, attribute path, span name).  Module-level names are patched
# where their caller looks them up.
LOAD_WRAPPERS = (
    ("repro.cpp.preprocessor", "Preprocessor.preprocess", "cpp.preprocess"),
    ("repro.cpp.preprocessor", "lex_logical_lines", "lexer.lex"),
    ("repro.parser.fmlr", "FMLRParser.parse", "fmlr.parse"),
    ("repro.engine.scheduler", "include_closure_digest",
     "engine.closure_digest"),
    ("repro.engine.cache", "ResultCache.get", "engine.cache_get"),
    ("repro.engine.cache", "ResultCache.put", "engine.cache_put"),
)
DAEMON_WRAPPERS = (
    ("repro.serve.state", "ServerState.unit_key", "serve.unit_key"),
    ("repro.serve.state", "ServerState.lookup", "serve.lookup"),
    ("repro.serve.state", "ServerState.parse", "serve.parse"),
    ("repro.serve.state", "ServerState.invalidate", "serve.invalidate"),
    ("repro.serve.state", "token_fingerprint", "serve.token_fp"),
    ("repro.serve.pool", "WorkerPool.execute", "serve.dispatch"),
    ("repro.engine.cache", "ResultCache.get", "serve.cache_get"),
    ("repro.engine.cache", "ResultCache.put", "serve.publish"),
    ("repro.serve.journal", "ParseJournal.append", "serve.publish"),
)


def install(recorder: SpanRecorder,
            wrappers: Iterable[Tuple[str, str, str]]) -> Callable:
    """Install ``wrappers``; returns a function that removes them."""
    restores = []
    for module_name, path, name in wrappers:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        restores.append(recorder.wrap(owner, attr, name))

    def uninstall():
        for restore in reversed(restores):
            restore()
    return uninstall


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Total self time (seconds) per span name: each span's length
    minus the part its children cover.  Children on the parent's thread
    never overlap; the two worker lanes attached to a client span can,
    so its self time is clamped at zero."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(
                span["parent"], 0.0) + span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + max(0.0, own)
    return totals


def write_spans(path: str, spans: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "spans": list(spans)}, handle)


def read_spans(path: str) -> Tuple[int, List[dict]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["pid"], data["spans"]


def chrome_trace(lanes: Sequence[Tuple[int, str, Sequence[dict]]]) -> dict:
    """Chrome trace_event JSON from (pid, process name, spans) lanes;
    span ids, parents and request ids ride along as args."""
    starts = [span["start"] for _pid, _name, spans in lanes
              for span in spans]
    origin = min(starts) if starts else 0.0
    events: List[dict] = []
    for pid, process_name, spans in lanes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "ts": 0, "args": {"name": process_name}})
        tids: Dict[int, int] = {}
        for span in spans:
            tid = tids.setdefault(span["tid"], len(tids) + 1)
            events.append({
                "name": span["name"], "ph": "X", "cat": "perfbench",
                "ts": round((span["start"] - origin) * 1e6, 3),
                "dur": round(max(0.0, span["end"] - span["start"]) * 1e6,
                             3),
                "pid": pid, "tid": tid,
                "args": {"id": span["id"], "parent": span["parent"],
                         "rid": span["rid"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"tool": "perfbench"}}
