"""Per-unit profiles: the digest of one traced pipeline run.

A :class:`Profile` is what ``SuperCResult.profile`` carries when the
pipeline ran with a real tracer: per-phase wall time (Figure 10's
breakdown), the counter registry (FMLR forks/merges/kill-switch
events, LALR action lookups, BDD node allocations and op-cache hit
rates, macro-expansion counts), and histogram summaries (per-iteration
live subparser counts for Figure 8, hoist expansion factors).

Profiles are built from a tracer window (:meth:`repro.obs.tracer
.Tracer.mark` / ``since``) so one long-lived tracer — e.g. a batch
worker's — yields independent per-unit profiles.  ``summary_dict()``
is the flat JSON form embedded in engine unit records and rolled up
by :meth:`repro.engine.results.CorpusReport.profile_rollup`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.tracer import Span, TraceEvent, Tracer


def summarize_histogram(values: Sequence[float]) -> Dict[str, float]:
    """count/mean/max digest of one histogram (JSON-friendly)."""
    if not values:
        return {"count": 0, "mean": 0.0, "max": 0.0}
    total = float(sum(values))
    return {"count": len(values),
            "mean": round(total / len(values), 4),
            "max": max(values)}


class Profile:
    """Everything observed for one traced unit."""

    def __init__(self, phases: Dict[str, float],
                 counters: Dict[str, int],
                 histograms: Dict[str, List[float]],
                 spans: Sequence[Span] = (),
                 events: Sequence[TraceEvent] = ()):
        self.phases = phases
        self.counters = counters
        self.histograms = histograms
        self.spans = list(spans)
        self.events = list(events)

    @classmethod
    def from_window(cls, tracer: Tracer, mark: tuple,
                    phases: Optional[Dict[str, float]] = None,
                    extra_counters: Optional[Dict[str, Any]] = None) \
            -> "Profile":
        """Build a profile from everything the tracer recorded after
        ``mark``; ``phases`` (the Timing breakdown) and
        ``extra_counters`` (pipeline stats objects flattened by the
        caller) are merged in."""
        window = tracer.since(mark)
        counters = dict(window["counters"])
        if extra_counters:
            counters.update(extra_counters)
        return cls(dict(phases or {}), counters,
                   window["histograms"], window["roots"],
                   window["events"])

    # -- serialization ------------------------------------------------

    def summary_dict(self) -> dict:
        """Flat JSON form for engine records and ``--json`` payloads."""
        return {
            "phases": {name: round(value, 6)
                       for name, value in self.phases.items()},
            "counters": dict(self.counters),
            "histograms": {name: summarize_histogram(values)
                           for name, values
                           in sorted(self.histograms.items())},
            "events": len(self.events),
            "spans": sum(1 for _ in self.iter_spans()),
        }

    def iter_spans(self):
        stack = list(self.spans)
        while stack:
            span = stack.pop()
            yield span
            stack.extend(span.children)

    # -- presentation -------------------------------------------------

    def format_summary(self) -> str:
        """The ``--profile`` text report: per-phase wall time, then
        counters grouped by namespace, then histogram digests."""
        lines = ["profile:"]
        total = self.phases.get("total") or sum(
            value for name, value in self.phases.items()
            if name != "total")
        for name in ("lex", "preprocess", "parse"):
            if name not in self.phases:
                continue
            seconds = self.phases[name]
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"  {name:<12} {seconds:8.4f}s  "
                         f"{share:5.1f}%")
        if total:
            lines.append(f"  {'total':<12} {total:8.4f}s")
        groups: Dict[str, List[str]] = {}
        for name in sorted(self.counters):
            namespace = name.split(".", 1)[0]
            groups.setdefault(namespace, []).append(name)
        for namespace in sorted(groups):
            parts = []
            for name in groups[namespace]:
                short = name.split(".", 1)[-1]
                value = self.counters[name]
                if isinstance(value, float):
                    parts.append(f"{short}={value:.3g}")
                else:
                    parts.append(f"{short}={value}")
            lines.append(f"  {namespace}: " + ", ".join(parts))
        for name, values in sorted(self.histograms.items()):
            digest = summarize_histogram(values)
            lines.append(f"  {name}: n={digest['count']} "
                         f"mean={digest['mean']:.4g} "
                         f"max={digest['max']:.4g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Profile(phases={self.phases}, "
                f"counters={len(self.counters)}, "
                f"histograms={len(self.histograms)})")


def merge_profile_summaries(summaries: Sequence[dict]) -> dict:
    """Corpus rollup of per-unit ``summary_dict()`` payloads: phase
    seconds and counters are summed; histogram digests are combined
    (counts summed, max of maxes, count-weighted mean)."""
    phases: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    units = 0
    for summary in summaries:
        if not summary:
            continue
        units += 1
        for name, value in (summary.get("phases") or {}).items():
            phases[name] = round(phases.get(name, 0.0) + value, 6)
        for name, value in (summary.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                counters[name] = counters.get(name, 0) + value
        for name, digest in (summary.get("histograms") or {}).items():
            into = histograms.setdefault(
                name, {"count": 0, "mean": 0.0, "max": 0.0})
            count = digest.get("count", 0)
            if count:
                merged = into["count"] + count
                into["mean"] = round(
                    (into["mean"] * into["count"]
                     + digest.get("mean", 0.0) * count) / merged, 4)
                into["count"] = merged
                into["max"] = max(into["max"], digest.get("max", 0.0))
    return {"units": units, "phases": phases, "counters": counters,
            "histograms": histograms}
