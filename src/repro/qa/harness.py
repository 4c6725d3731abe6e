"""The fuzzing harness: generation, checking, shrinking, reporting.

Rides on :mod:`repro.engine`'s batch scheduler — each "unit" is a
virtual name ``fuzz:<seed>``; a custom :class:`CorpusJob` runner
(:func:`run_fuzz_unit`, given by dotted path) generates the unit
deterministically from its seed, differentially checks it, and
returns a standard engine record, so fuzz runs get the engine's
supervised worker pool, per-unit deadlines, retry waves, and
JSON-lines metrics for free.

Disagreements are minimized in the parent with the ddmin shrinker and
emitted as ``counterexample`` metrics events.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional

from repro.corpus.fuzz import FuzzSpec, FuzzUnit, generate_fuzz_unit
from repro.engine.metrics import MetricsStream
from repro.engine.results import (STATUS_CRASHED, STATUS_DEGRADED,
                                  STATUS_DISAGREE, STATUS_ERROR,
                                  STATUS_OK, STATUS_TIMEOUT,
                                  CorpusReport)
from repro.engine.scheduler import (BatchEngine, CorpusJob, EngineConfig,
                                    UnitRunner)
from repro.qa.differential import DifferentialChecker
from repro.qa.shrinker import ShrinkBudget, shrink

UNIT_PREFIX = "fuzz:"
RUNNER_PATH = "repro.qa.harness:run_fuzz_unit"


def unit_name(seed: int) -> str:
    return f"{UNIT_PREFIX}{seed}"


def unit_seed(unit: str) -> int:
    if not unit.startswith(UNIT_PREFIX):
        raise ValueError(f"not a fuzz unit: {unit!r}")
    return int(unit[len(UNIT_PREFIX):])


def _spec_from_args(args: Dict[str, object]) -> FuzzSpec:
    return FuzzSpec(variables=int(args.get("variables", 3)),
                    items=int(args.get("items", 8)),
                    weights=args.get("weights"))


def _checker_from_state(state: UnitRunner) -> DifferentialChecker:
    """One checker per worker process, sharing the worker's tables."""
    checker = state.runner_cache.get("checker")
    if checker is None:
        args = state.runner_args
        checker = DifferentialChecker(
            files={}, include_paths=(),
            max_configs=int(args.get("max_configs", 12)),
            parse=bool(args.get("parse", True)),
            tables=state.superc.tables)
        state.runner_cache["checker"] = checker
    return checker


def check_unit(checker: DifferentialChecker, unit: FuzzUnit):
    """Differentially check one generated unit (valid by
    construction, hence ``expect_parseable``)."""
    return checker.check_source(unit.text, unit.filename,
                                seed=unit.seed, expect_parseable=True)


def run_fuzz_unit(state: UnitRunner, unit: str) -> dict:
    """Engine runner: one fuzz unit inside a worker process."""
    args = state.runner_args
    seed = unit_seed(unit)
    fuzz_unit = generate_fuzz_unit(seed, _spec_from_args(args))
    checker = _checker_from_state(state)
    start = time.perf_counter()
    outcome = check_unit(checker, fuzz_unit)
    seconds = time.perf_counter() - start
    disagreements = [d.to_record() for d in outcome.disagreements]
    if disagreements:
        status = STATUS_DISAGREE
    elif outcome.superc_status == STATUS_DEGRADED:
        # Both pipelines agree, but the config-preserving result is
        # partial (confined errors / shed configurations).
        status = STATUS_DEGRADED
    else:
        status = STATUS_OK
    record = {
        "unit": unit,
        "status": status,
        "cache": "miss",
        "seconds": round(seconds, 6),
        "timing": {"lex": 0.0, "preprocess": 0.0,
                   "parse": round(seconds, 6),
                   "total": round(seconds, 6)},
        "subparsers": {"max": 0, "forks": 0, "merges": 0},
        "preprocessor": {},
        "profile": None,
        "failures": [f"{d['kind']}: {d['detail']}"
                     for d in disagreements[:3]],
        "error": None,
        "qa": {"seed": seed,
               "configs_checked": outcome.configs_checked,
               "disagreements": disagreements,
               # Text rides along only when needed for shrinking.
               "text": fuzz_unit.text if disagreements else None},
    }
    return record


class Counterexample:
    """A shrunk disagreeing input."""

    def __init__(self, seed: int, kind: str, config: Dict[str, str],
                 detail: str, original: str, shrunk: str,
                 predicate_calls: int):
        self.seed = seed
        self.kind = kind
        self.config = config
        self.detail = detail
        self.original = original
        self.shrunk = shrunk
        self.predicate_calls = predicate_calls

    def to_record(self) -> dict:
        return {"seed": self.seed, "kind": self.kind,
                "config": self.config, "detail": self.detail,
                "original_lines": len(self.original.splitlines()),
                "shrunk_lines": len(self.shrunk.splitlines()),
                "shrunk": self.shrunk,
                "predicate_calls": self.predicate_calls}


class FuzzReport:
    """Everything one fuzz run produced."""

    def __init__(self, report: CorpusReport,
                 counterexamples: List[Counterexample]):
        self.report = report
        self.counterexamples = counterexamples

    @property
    def clean(self) -> bool:
        """No counterexamples and no unit that disagreed, crashed,
        errored, or timed out.  Degraded units (error agreement held,
        configurations were confined) do not break cleanliness."""
        bad = (STATUS_DISAGREE, STATUS_ERROR, STATUS_TIMEOUT,
               STATUS_CRASHED)
        return not self.counterexamples and \
            not any(s in self.report.by_status for s in bad)


def _error_fingerprint(detail: str) -> str:
    """Error identity modulo locations and numbers, so a shrink
    candidate must keep failing for the *same* reason rather than
    wandering to any other error of the same kind."""
    detail = re.sub(r"\S+:\d+:\d+:", "<loc>", detail)
    return re.sub(r"\d+", "N", detail)[:120]


def shrink_disagreement(checker: DifferentialChecker, text: str,
                        kind: str, seed: int,
                        budget: Optional[ShrinkBudget] = None,
                        detail: Optional[str] = None) -> tuple:
    """Minimize ``text`` while it still produces a ``kind``
    disagreement.  Returns (shrunk_text, predicate_calls)."""
    expect = kind == "unparseable"
    # Error-carrying kinds must preserve the error's fingerprint;
    # token/AST diffs legitimately change shape while shrinking.
    want = _error_fingerprint(detail) \
        if detail and kind in ("error-agreement", "invariant") else None

    def still_disagrees(candidate: str) -> bool:
        outcome = checker.check_source(candidate, f"shrink_{seed}.c",
                                       seed=seed,
                                       expect_parseable=expect)
        for d in outcome.disagreements:
            if d.kind != kind:
                continue
            if want is None or _error_fingerprint(d.detail) == want:
                return True
        return False

    budget = budget or ShrinkBudget(200)
    result = shrink(text, still_disagrees, budget)
    return result, budget.used


def run_fuzz(units: int = 50, seed: int = 0,
             spec: Optional[FuzzSpec] = None,
             workers: int = 1, timeout_seconds: float = 10.0,
             max_configs: int = 12, parse: bool = True,
             do_shrink: bool = True,
             shrink_budget: int = 200,
             metrics: Optional[MetricsStream] = None,
             tracer=None) -> FuzzReport:
    """Fuzz ``units`` generated units starting at ``seed``.

    ``tracer`` (a :class:`repro.obs.Tracer`) observes the parent-side
    engine: cache-probe/wave spans and scheduling counters.
    """
    spec = spec or FuzzSpec()
    metrics = metrics or MetricsStream()
    runner_args = {"variables": spec.variables, "items": spec.items,
                   "weights": spec.weights, "max_configs": max_configs,
                   "parse": parse}
    job = CorpusJob([unit_name(seed + i) for i in range(units)],
                    files={}, runner=RUNNER_PATH,
                    runner_args=runner_args)
    engine = BatchEngine(EngineConfig(workers=workers,
                                      timeout_seconds=timeout_seconds,
                                      use_result_cache=False))
    report = engine.run(job, metrics, tracer=tracer)

    counterexamples: List[Counterexample] = []
    if do_shrink:
        checker: Optional[DifferentialChecker] = None
        for record in report.records:
            qa = record.get("qa") or {}
            disagreements = qa.get("disagreements") or []
            text = qa.get("text")
            if not disagreements or not text:
                continue
            if checker is None:
                checker = DifferentialChecker(
                    files={}, include_paths=(),
                    max_configs=max_configs, parse=parse)
            first = disagreements[0]
            shrunk, calls = shrink_disagreement(
                checker, text, first["kind"], qa.get("seed", 0),
                ShrinkBudget(shrink_budget),
                detail=first.get("detail"))
            example = Counterexample(
                qa.get("seed", 0), first["kind"],
                first.get("config", {}), first.get("detail", ""),
                text, shrunk, calls)
            counterexamples.append(example)
            metrics.emit({"event": "counterexample",
                          **example.to_record()})
    return FuzzReport(report, counterexamples)
