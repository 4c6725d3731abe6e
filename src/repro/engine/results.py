"""Per-unit records and corpus-level rollups.

A unit *record* is a flat, JSON-serializable dict — the common currency
between worker processes, the metrics stream, and the result cache:

.. code-block:: python

    {"unit": "drivers/net/net_drv0.c",
     "status": "ok",            # ok | parse-failed | error | timeout
     "attempt": 1,              # 1-based; >1 after retries
     "cache": "miss",           # hit | miss
     "seconds": 0.41,           # wall time inside the worker
     "timing": {"lex": ..., "preprocess": ..., "parse": ...,
                "total": ...},
     "subparsers": {"max": 7, "forks": 12, "merges": 11},
     "preprocessor": {...},     # PreprocessorStats.as_dict()
     "profile": {...} | None,   # repro.obs Profile.summary_dict()
     "failures": [...],         # first few parse-failure messages
     "error": None}             # exception repr for status "error"

:class:`UnitResult` wraps a record in the uniform Result protocol
(``status/ok/degraded/diagnostics/timing/profile``, see
:mod:`repro.api`), so engine output and single-unit ``SuperCResult``
objects can be consumed by the same code.

``aggregate`` folds records into a :class:`CorpusReport`: status
counts, cache hits, timing totals, and the paper's rollups — Figure 8
subparser percentiles, Figure 10 latency-breakdown percentiles, and
Table 3 style per-counter percentiles over the preprocessor stats.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.profile import merge_profile_summaries

STATUS_OK = "ok"
# A partial result: an AST exists, but some configurations were pruned
# (confined preprocessor errors), rejected (parse failures), or
# degraded away (kill-switch/budget trips).  Degraded units count as
# coverage, not as failures.
STATUS_DEGRADED = "degraded"
STATUS_PARSE_FAILED = "parse-failed"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
# Emitted by differential runners (repro.qa): the two pipelines
# returned different answers for at least one configuration.
STATUS_DISAGREE = "disagree"
# Assigned by the scheduler's crash-loop circuit breaker: the unit
# crashed or timed out on N consecutive attempts and is permanently
# abandoned for the run (never cached, never retried again).
STATUS_CRASHED = "crashed"

# Statuses the scheduler will resubmit (a parse failure is a property
# of the source, not of the run — retrying cannot change it; the same
# goes for a deterministic pipeline disagreement).
RETRYABLE_STATUSES = (STATUS_ERROR, STATUS_TIMEOUT)

PERCENTILES = (0.5, 0.9, 1.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the paper's 50th/90th/100th columns)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(p * (len(ordered) - 1)))))
    return ordered[index]


def record_from_result(unit: str, result, attempt: int = 1,
                       seconds: float = 0.0) -> dict:
    """Build a unit record from a ``SuperCResult``."""
    failures = [str(failure) for failure in result.failures[:3]]
    stats = result.parse.stats
    status = getattr(result, "status", None)
    if status not in (STATUS_OK, STATUS_DEGRADED, STATUS_PARSE_FAILED):
        status = STATUS_OK if result.ok else STATUS_PARSE_FAILED
    diagnostics = [diag.to_record()
                   for diag in result.diagnostics[:20]]
    invalid = result.invalid_configs
    return {
        "unit": unit,
        "status": status,
        "attempt": attempt,
        "cache": "miss",
        "seconds": round(seconds, 6),
        "timing": {"lex": round(result.timing.lex, 6),
                   "preprocess": round(result.timing.preprocess, 6),
                   "parse": round(result.timing.parse, 6),
                   "total": round(result.timing.total, 6)},
        "subparsers": {"max": stats.max_subparsers,
                       "forks": stats.forks,
                       "merges": stats.merges},
        "preprocessor": result.unit.stats.as_dict(),
        "profile": (result.profile.summary_dict()
                    if getattr(result, "profile", None) is not None
                    else None),
        "failures": failures,
        "diagnostics": diagnostics,
        "invalid_configs": (None if invalid.is_false()
                            else invalid.to_expr_string()),
        "error": None,
    }


def error_record(unit: str, status: str, message: str,
                 attempt: int = 1, seconds: float = 0.0) -> dict:
    """Build a unit record for a crashed or timed-out attempt."""
    return {
        "unit": unit,
        "status": status,
        "attempt": attempt,
        "cache": "miss",
        "seconds": round(seconds, 6),
        "timing": {"lex": 0.0, "preprocess": 0.0, "parse": 0.0,
                   "total": 0.0},
        "subparsers": {"max": 0, "forks": 0, "merges": 0},
        "preprocessor": {},
        "profile": None,
        "failures": [],
        "diagnostics": [],
        "invalid_configs": None,
        "error": message,
    }


class UnitResult:
    """Result-protocol view over one unit record dict.

    ``diagnostics`` are the serialized diagnostic dicts carried by the
    record (not live ``Diagnostic`` objects), and ``profile`` is the
    JSON profile summary dict (or None) — the shapes that survive the
    worker boundary.
    """

    __slots__ = ("record",)

    def __init__(self, record: dict):
        self.record = record

    @property
    def unit(self) -> str:
        return self.record["unit"]

    @property
    def status(self) -> str:
        return self.record["status"]

    @property
    def ok(self) -> bool:
        return self.record["status"] == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.record["status"] == STATUS_DEGRADED

    @property
    def diagnostics(self) -> List[dict]:
        return list(self.record.get("diagnostics") or ())

    @property
    def failures(self) -> List[str]:
        return list(self.record.get("failures") or ())

    @property
    def timing(self) -> Any:
        from repro.superc import Timing
        timing = self.record.get("timing") or {}
        return Timing(timing.get("lex", 0.0),
                      timing.get("preprocess", 0.0),
                      timing.get("parse", 0.0))

    @property
    def profile(self) -> Optional[dict]:
        return self.record.get("profile")

    @property
    def error(self) -> Optional[str]:
        return self.record.get("error")

    def __repr__(self) -> str:
        return f"UnitResult({self.unit!r}, {self.status!r})"


class CorpusReport:
    """Aggregated outcome of one batch run."""

    def __init__(self, records: List[dict], wall_seconds: float = 0.0,
                 workers: int = 1,
                 counters: Optional[Dict[str, int]] = None):
        self.records = records
        self.wall_seconds = wall_seconds
        self.workers = workers
        # The run's process counters (repro.obs.Counters snapshot):
        # result_cache.*, and pool.* when units ran on workers.
        self.counters = counters or {}
        by_status: Dict[str, int] = {}
        for record in records:
            by_status[record["status"]] = \
                by_status.get(record["status"], 0) + 1
        self.by_status = by_status
        self.cache_hits = sum(1 for r in records
                              if r.get("cache") == "hit")
        self.cache_misses = len(records) - self.cache_hits

    # -- counts ----------------------------------------------------------

    @property
    def units(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> int:
        return self.by_status.get(STATUS_OK, 0)

    @property
    def degraded(self) -> int:
        return self.by_status.get(STATUS_DEGRADED, 0)

    @property
    def failed(self) -> int:
        return (self.by_status.get(STATUS_PARSE_FAILED, 0)
                + self.by_status.get(STATUS_ERROR, 0)
                + self.by_status.get(STATUS_TIMEOUT, 0)
                + self.by_status.get(STATUS_DISAGREE, 0)
                + self.by_status.get(STATUS_CRASHED, 0))

    @property
    def all_ok(self) -> bool:
        """Every unit produced a usable (possibly partial) result.
        Degraded units carry condition-tagged diagnostics but still
        have an AST, so they count toward coverage."""
        return self.units > 0 and \
            self.ok + self.degraded == self.units

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.units if self.units else 0.0

    # -- rollups ---------------------------------------------------------

    @property
    def cpu_seconds(self) -> float:
        """Summed per-unit worker time (vs ``wall_seconds``: the
        difference is the parallel speedup)."""
        return sum(record["seconds"] for record in self.records)

    def statuses(self) -> Dict[str, str]:
        """unit path -> status (for serial-vs-parallel comparison)."""
        return {record["unit"]: record["status"]
                for record in self.records}

    def unit_results(self) -> List[UnitResult]:
        """Result-protocol views over every record."""
        return [UnitResult(record) for record in self.records]

    def subparser_rollup(self) -> Dict[str, float]:
        """Figure 8: percentiles of per-unit max live subparsers, plus
        corpus-total forks/merges."""
        maxima = [record["subparsers"]["max"] for record in self.records]
        rollup = {f"p{int(p * 100)}": percentile(maxima, p)
                  for p in PERCENTILES}
        rollup["forks"] = sum(record["subparsers"]["forks"]
                              for record in self.records)
        rollup["merges"] = sum(record["subparsers"]["merges"]
                               for record in self.records)
        return rollup

    def latency_rollup(self) -> Dict[str, Dict[str, float]]:
        """Figure 10: per-phase latency percentiles and totals."""
        rollup: Dict[str, Dict[str, float]] = {}
        for phase in ("lex", "preprocess", "parse"):
            values = [record["timing"][phase] for record in self.records]
            rollup[phase] = {f"p{int(p * 100)}": percentile(values, p)
                             for p in PERCENTILES}
            rollup[phase]["total"] = sum(values)
        return rollup

    def diagnostic_rollup(self) -> Dict[str, int]:
        """Histogram of condition-scoped diagnostics across the corpus,
        keyed ``phase/severity`` (e.g. ``include/config-error``) — the
        error-condition aggregate the degradation layer feeds from
        ``superc-parse --json`` records."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            for diag in record.get("diagnostics") or ():
                key = (f"{diag.get('phase', '?')}/"
                       f"{diag.get('severity', '?')}")
                histogram[key] = histogram.get(key, 0) + 1
        return dict(sorted(histogram.items()))

    def preprocessor_rollup(self) -> Dict[str, Dict[str, float]]:
        """Table 3: percentiles of each preprocessor counter across the
        corpus's compilation units."""
        counters: Dict[str, List[float]] = {}
        for record in self.records:
            for key, value in record.get("preprocessor", {}).items():
                counters.setdefault(key, []).append(value)
        return {key: {f"p{int(p * 100)}": percentile(values, p)
                      for p in PERCENTILES}
                for key, values in sorted(counters.items())}

    def profile_rollup(self) -> Optional[dict]:
        """Corpus-wide aggregate of the per-unit observability
        profiles (phases and counters summed, histograms combined);
        None when no record carries a profile (un-profiled run)."""
        summaries = [record["profile"] for record in self.records
                     if record.get("profile")]
        if not summaries:
            return None
        return merge_profile_summaries(summaries)

    def summary(self) -> dict:
        """The run-end metrics event payload."""
        payload = {
            "units": self.units,
            "by_status": dict(self.by_status),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": round(self.wall_seconds, 3),
            "cpu_seconds": round(self.cpu_seconds, 3),
            "workers": self.workers,
            "subparsers": self.subparser_rollup(),
            "diagnostics": self.diagnostic_rollup(),
        }
        rollup = self.profile_rollup()
        if rollup is not None:
            payload["profile"] = rollup
        return payload


def format_report(report: CorpusReport, verbose: bool = False) -> str:
    """Human-readable corpus report for the CLI."""
    lines = []
    lines.append(f"units: {report.units}  ok: {report.ok}  "
                 f"degraded: {report.degraded}  "
                 f"parse-failed: "
                 f"{report.by_status.get(STATUS_PARSE_FAILED, 0)}  "
                 f"errors: {report.by_status.get(STATUS_ERROR, 0)}  "
                 f"timeouts: {report.by_status.get(STATUS_TIMEOUT, 0)}"
                 + (f"  disagreements: "
                    f"{report.by_status[STATUS_DISAGREE]}"
                    if STATUS_DISAGREE in report.by_status else "")
                 + (f"  crashed: {report.by_status[STATUS_CRASHED]}"
                    if STATUS_CRASHED in report.by_status else ""))
    lines.append(f"cache: {report.cache_hits} hit / "
                 f"{report.cache_misses} miss "
                 f"({100.0 * report.cache_hit_rate:.0f}% hits)")
    lines.append(f"wall: {report.wall_seconds:.2f}s over "
                 f"{report.workers} worker(s); "
                 f"cpu: {report.cpu_seconds:.2f}s")
    sub = report.subparser_rollup()
    lines.append(f"subparsers: p50 {sub['p50']:.0f}, "
                 f"p90 {sub['p90']:.0f}, max {sub['p100']:.0f}; "
                 f"forks {sub['forks']}, merges {sub['merges']}")
    latency = report.latency_rollup()
    lines.append("latency totals: " + ", ".join(
        f"{phase} {latency[phase]['total']:.2f}s"
        for phase in ("lex", "preprocess", "parse")))
    if verbose:
        lines.append("preprocessor rollup (p50/p90/p100):")
        for key, row in report.preprocessor_rollup().items():
            lines.append(f"  {key}: {row['p50']:.0f} / "
                         f"{row['p90']:.0f} / {row['p100']:.0f}")
    rollup = report.diagnostic_rollup()
    if rollup:
        lines.append("diagnostics: " + ", ".join(
            f"{key} {count}" for key, count in rollup.items()))
    failing = [record for record in report.records
               if record["status"] not in (STATUS_OK, STATUS_DEGRADED)]
    for record in failing[:10]:
        detail = record["error"] or "; ".join(record["failures"][:1])
        lines.append(f"  {record['status']}: {record['unit']}"
                     + (f" — {detail}" if detail else ""))
    if len(failing) > 10:
        lines.append(f"  ... and {len(failing) - 10} more")
    return "\n".join(lines)
