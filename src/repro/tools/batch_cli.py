"""Command-line interface: parse a whole corpus in parallel.

Usage::

    python -m repro.tools.batch_cli TREE [-I DIR]... [--workers N]
    python -m repro.tools.batch_cli --generate --scale 2 --workers 4

The first form scans a source tree for ``*.c`` compilation units; the
second generates the synthetic kernel corpus in memory (optionally
materializing it with ``--write-tree``).  Either way the units are
scheduled over a worker pool with per-unit deadlines and retries,
results are served from the persistent result cache when sources are
unchanged, and a corpus-level report (status counts, cache hits,
Figure 8 subparser rollup, latency totals) is printed.  ``--metrics``
streams per-unit JSON-lines events; ``--json`` prints the aggregate
report as JSON.

Exit status: 0 when every unit produced a usable result — ``ok`` or
``degraded`` (partial AST with condition-scoped diagnostics; confined
errors and dropped configurations count as coverage, not failure) —
1 when any unit parse-failed, errored, timed out, or was abandoned by
the crash-loop circuit breaker (``crashed``), 2 for usage errors (no
units found).  The report's ``diagnostics:`` line is the corpus-wide
``phase/severity`` histogram of confined errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.engine import (BatchEngine, CorpusJob, EngineConfig,
                          MetricsStream, format_report)
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.tools.parse_cli import parse_defines


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superc-batch",
        description="Corpus-scale configuration-preserving C parsing "
                    "(SuperC batch engine).")
    parser.add_argument("tree", nargs="?",
                        help="source tree to scan for *.c units "
                             "(omit with --generate)")
    parser.add_argument("--generate", action="store_true",
                        help="use the synthetic kernel corpus instead "
                             "of a source tree")
    parser.add_argument("--scale", type=int, default=1, metavar="N",
                        help="synthetic corpus scale factor")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic corpus seed")
    parser.add_argument("--write-tree", metavar="DIR",
                        help="materialize the generated corpus to DIR "
                             "and parse it from disk")
    parser.add_argument("-I", "--include", action="append",
                        default=[], metavar="DIR",
                        help="add an include search directory "
                             "(relative to the tree root)")
    parser.add_argument("-D", "--define", action="append", default=[],
                        metavar="NAME[=VALUE]",
                        help="predefine an object-like macro")
    parser.add_argument("--glob", default="**/*.c", metavar="PATTERN",
                        help="unit glob relative to the tree root")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (1 = in-process serial)")
    parser.add_argument("--timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="per-unit deadline (0 disables)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="retries for crashed/timed-out units")
    parser.add_argument("--optimization",
                        default="Shared, Lazy, & Early",
                        choices=sorted(OPTIMIZATION_LEVELS),
                        help="FMLR optimization level")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="cache directory (default: "
                             "$REPRO_CACHE_DIR or "
                             "~/.cache/repro-superc)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="always reparse; skip the result cache")
    parser.add_argument("--metrics", metavar="FILE",
                        help="append JSON-lines unit events to FILE "
                             "('-' for stderr)")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregate report as JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="include the Table 3 preprocessor rollup")
    parser.add_argument("--profile", action="store_true",
                        help="give every worker an enabled repro.obs "
                             "tracer: each unit record carries a "
                             "profile and the report gains a corpus "
                             "profile rollup")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace_event JSON of the "
                             "run: one lane per unit (from record "
                             "timings) plus the engine's own spans")
    return parser


def _make_job(args) -> Optional[CorpusJob]:
    defines = parse_defines(args.define)
    if args.generate:
        from repro.corpus import KernelSpec, generate_kernel
        spec = KernelSpec(seed=args.seed)
        if args.scale > 1:
            spec = spec.scaled(args.scale)
        corpus = generate_kernel(spec)
        if args.write_tree:
            corpus.write_to_directory(args.write_tree)
            return CorpusJob.from_directory(
                args.write_tree, include_paths=corpus.include_paths,
                extra_definitions=defines or None)
        return CorpusJob.from_corpus(corpus,
                                     extra_definitions=defines or None)
    if not args.tree:
        return None
    return CorpusJob.from_directory(
        args.tree, include_paths=args.include or ["include"],
        pattern=args.glob, extra_definitions=defines or None)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    job = _make_job(args)
    if job is None:
        print("error: give a source tree or --generate",
              file=sys.stderr)
        return 2
    if not job.units:
        print("error: no compilation units found", file=sys.stderr)
        return 2

    config = EngineConfig(workers=args.workers,
                          timeout_seconds=args.timeout,
                          retries=args.retries,
                          optimization=args.optimization,
                          cache_dir=args.cache_dir,
                          use_result_cache=not args.no_result_cache,
                          profile=args.profile)
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
    sink = None
    if args.metrics == "-":
        sink = sys.stderr
    elif args.metrics:
        sink = args.metrics
    with MetricsStream(sink) as metrics:
        report = BatchEngine(config).run(job, metrics, tracer=tracer)

    if args.trace:
        from repro.obs import records_to_chrome_trace, \
            write_chrome_trace
        write_chrome_trace(args.trace,
                           records_to_chrome_trace(
                               report.records, tracer=tracer,
                               counters=report.counters))
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.json:
        payload = report.summary()
        payload["latency"] = report.latency_rollup()
        if args.verbose:
            payload["preprocessor"] = report.preprocessor_rollup()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(report, verbose=args.verbose))
        rollup = report.profile_rollup()
        if rollup is not None:
            phases = rollup.get("phases") or {}
            counters = rollup.get("counters") or {}
            print("profile rollup: " + ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in phases.items()))
            interesting = ("fmlr.forks", "fmlr.merges",
                           "fmlr.kill_switch_trips", "bdd.nodes_created",
                           "bdd.apply_calls", "cpp.conditionals")
            shown = {key: counters[key] for key in interesting
                     if key in counters}
            if shown:
                print("profile counters: " + ", ".join(
                    f"{key}={value}" for key, value in shown.items()))
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
