"""Trace exporters: Chrome ``trace_event`` JSON and text flamegraphs.

The Chrome exporter emits the JSON Object Format of the Trace Event
specification — ``{"traceEvents": [...]}`` — loadable in
``chrome://tracing`` and Perfetto:

* spans become complete events (``"ph": "X"`` with ``ts``/``dur`` in
  microseconds);
* instant events (FMLR fork/merge, kill-switch trips, diagnostics)
  become ``"ph": "i"`` events with thread scope;
* counters — the tracer's and, when given, a process
  :class:`~repro.obs.counters.Counters` snapshot (a daemon's or a
  batch run's) — become one trailing ``"ph": "C"`` sample per
  counter, so totals are visible on the timeline.

``validate_chrome_trace`` is the schema check used by the
``trace-smoke`` Make target and ``tests/test_obs.py``; it validates
shape, monotonicity-free requirements (the spec allows unsorted
events), and JSON-serializability.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.tracer import Span, Tracer

_PROCESS_NAME = "superc"


def _span_events(span: Span, origin: float, pid: int, tid: int,
                 out: List[dict]) -> None:
    event = {"name": span.name, "ph": "X", "cat": "pipeline",
             "ts": round((span.start - origin) * 1e6, 3),
             "dur": round(span.seconds * 1e6, 3),
             "pid": pid, "tid": tid}
    if span.args:
        event["args"] = dict(span.args)
    out.append(event)
    for child in span.children:
        _span_events(child, origin, pid, tid, out)


def to_chrome_trace(tracer: Tracer, pid: int = 1, tid: int = 1,
                    extra_events: Optional[Sequence[dict]] = None,
                    lane_per_root: bool = False,
                    counters: Optional[Mapping[str, int]] = None) -> dict:
    """Export a tracer's spans/events/counters as a Chrome trace dict.

    ``counters`` (a :meth:`Counters.snapshot
    <repro.obs.counters.Counters.snapshot>`) adds the owning daemon's
    or batch run's process counters to the ``"C"`` samples.

    ``lane_per_root`` gives every root span its own thread lane
    (tid = root index + 1) with a thread_name taken from the span's
    args (request op/unit when present) — the serve layer uses it so a
    traced server run renders one lane per request.
    """
    origin = 0.0
    starts = [root.start for root in tracer.roots]
    starts.extend(event.ts for event in tracer.events)
    if starts:
        origin = min(starts)
    trace_events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": tid,
        "ts": 0, "args": {"name": _PROCESS_NAME}}]
    for index, root in enumerate(tracer.roots):
        root_tid = tid
        if lane_per_root:
            root_tid = index + 1
            args = root.args or {}
            label = " ".join(str(args[key]) for key in
                             ("op", "unit", "file", "path")
                             if key in args) or root.name
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": root_tid, "ts": 0,
                "args": {"name": f"request {index + 1}: {label}"}})
        _span_events(root, origin, pid, root_tid, trace_events)
    for event in tracer.events:
        record = {"name": event.name, "ph": "i", "s": "t",
                  "cat": "event",
                  "ts": round((event.ts - origin) * 1e6, 3),
                  "pid": pid, "tid": tid}
        if event.args:
            record["args"] = dict(event.args)
        trace_events.append(record)
    end_ts = 0.0
    for record in trace_events:
        end_ts = max(end_ts,
                     record.get("ts", 0) + record.get("dur", 0))
    samples = dict(tracer.counters)
    samples.update(counters or {})
    for name in sorted(samples):
        trace_events.append({
            "name": name, "ph": "C", "cat": "counter",
            "ts": round(end_ts, 3), "pid": pid, "tid": tid,
            "args": {"value": samples[name]}})
    if extra_events:
        trace_events.extend(extra_events)
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro-superc"}}


def records_to_chrome_trace(records: Sequence[dict],
                            tracer: Optional[Tracer] = None,
                            counters: Optional[Mapping[str, int]] = None
                            ) -> dict:
    """Corpus-level trace from engine unit records: each unit becomes
    a lane of per-phase complete events laid out on a synthetic serial
    timeline (records carry durations, not absolute timestamps).  A
    parent-side tracer's spans, when given, ride along on pid 0, with
    the run's ``counters`` (``CorpusReport.counters``) as its ``"C"``
    samples."""
    trace_events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "ts": 0, "args": {"name": f"{_PROCESS_NAME}-batch"}}]
    cursor = 0.0
    for index, record in enumerate(records):
        tid = index + 1
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "ts": 0, "args": {"name": record.get("unit", f"unit-{tid}")}})
        unit_start = cursor
        timing = record.get("timing") or {}
        offset = unit_start
        for phase in ("lex", "preprocess", "parse"):
            duration = float(timing.get(phase) or 0.0)
            trace_events.append({
                "name": phase, "ph": "X", "cat": "pipeline",
                "ts": round(offset * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1, "tid": tid,
                "args": {"unit": record.get("unit"),
                         "status": record.get("status"),
                         "cache": record.get("cache")}})
            offset += duration
        cursor = max(offset, unit_start) + 1e-6
    if tracer is not None and tracer.enabled:
        parent = to_chrome_trace(tracer, pid=0, tid=0,
                                 counters=counters)
        trace_events.extend(parent["traceEvents"])
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro-superc"}}


def write_chrome_trace(path: str, trace: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True)
        handle.write("\n")


_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")
_KNOWN_PHASES = frozenset("XBEiIMC")


def validate_chrome_trace(trace: Any) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["top level is not an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    open_b: Dict[tuple, int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for key in _REQUIRED_KEYS:
            if key not in event:
                problems.append(f"event {index} lacks {key!r}")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"event {index} has unknown ph {phase!r}")
        if phase == "X" and "dur" not in event:
            problems.append(f"event {index} (X) lacks dur")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"event {index} (i) has bad scope")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index} has bad ts {ts!r}")
        if phase == "B":
            key = (event.get("pid"), event.get("tid"))
            open_b[key] = open_b.get(key, 0) + 1
        elif phase == "E":
            key = (event.get("pid"), event.get("tid"))
            open_b[key] = open_b.get(key, 0) - 1
            if open_b[key] < 0:
                problems.append(f"event {index}: E without B")
    for key, depth in open_b.items():
        if depth > 0:
            problems.append(f"unclosed B events on pid/tid {key}")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as error:
        problems.append(f"not JSON-serializable: {error}")
    return problems


def format_flamegraph(tracer: Tracer, width: int = 60) -> str:
    """Plain-text flame view: one line per span, indented by depth,
    with duration, share of its root, and a proportional bar."""
    lines: List[str] = []
    for root in tracer.roots:
        total = root.seconds or 1e-9

        def walk(span: Span, depth: int) -> None:
            share = span.seconds / total
            bar = "#" * max(1, int(round(share * 24)))
            label = "  " * depth + span.name
            lines.append(f"{label:<{width - 36}.{width - 36}} "
                         f"{span.seconds * 1000:9.3f}ms "
                         f"{100 * share:5.1f}%  {bar}")
            for child in span.children:
                walk(child, depth + 1)

        walk(root, 0)
    return "\n".join(lines)
