"""Corpus-scale batch parsing engine.

The paper's evaluation is a corpus run — all 7,665 compilation units
of the x86 Linux kernel.  This subsystem is the reproduction's driver
for runs of that shape: a :class:`BatchEngine` schedules compilation
units across worker processes with per-unit deadlines, retries,
and error isolation; persistent caches (``repro.engine.cache``) keep
LALR tables and unchanged units' results across runs; a JSON-lines
metrics stream (``repro.engine.metrics``) reports progress; and
``repro.engine.results`` rolls per-unit records up into the paper's
Table 3 / Figure 8 / Figure 10 aggregates.  Runs with several workers
or a deadline execute on the supervised fork pool of
:mod:`repro.serve.pool`, which kills a unit's worker at its deadline
and confines a worker's death to that one unit.

Typical use::

    from repro.corpus import generate_kernel
    from repro.engine import BatchEngine, CorpusJob, EngineConfig

    job = CorpusJob.from_corpus(generate_kernel())
    report = BatchEngine(EngineConfig(workers=4)).run(job)
    report.all_ok, report.cache_hit_rate, report.subparser_rollup()

The ``superc-batch`` CLI (``repro.tools.batch_cli``) fronts this
module for directory trees and generated corpora.
"""

from repro.engine.cache import (RESULT_CACHE_VERSION, ResultCache,
                                config_fingerprint,
                                include_closure_digest)
from repro.engine.metrics import STREAM_SCHEMA_VERSION, MetricsStream
from repro.engine.results import (RETRYABLE_STATUSES, STATUS_CRASHED,
                                  STATUS_DEGRADED, STATUS_DISAGREE,
                                  STATUS_ERROR, STATUS_OK,
                                  STATUS_PARSE_FAILED, STATUS_TIMEOUT,
                                  CorpusReport, UnitResult,
                                  error_record, format_report,
                                  percentile, record_from_result)
from repro.engine.scheduler import (DEFAULT_OPTIMIZATION, BatchEngine,
                                    CorpusJob, CrashLoopBreaker,
                                    EngineConfig)

__all__ = [
    "BatchEngine", "CorpusJob", "CorpusReport", "CrashLoopBreaker",
    "DEFAULT_OPTIMIZATION",
    "EngineConfig", "MetricsStream", "RESULT_CACHE_VERSION",
    "RETRYABLE_STATUSES", "ResultCache", "STATUS_CRASHED",
    "STATUS_DEGRADED", "STATUS_DISAGREE",
    "STATUS_ERROR", "STATUS_OK",
    "STATUS_PARSE_FAILED", "STATUS_TIMEOUT", "STREAM_SCHEMA_VERSION",
    "UnitResult",
    "config_fingerprint", "error_record", "format_report",
    "include_closure_digest", "percentile",
    "record_from_result",
]
