"""Command-line interface: differential fuzzing of the two pipelines.

Usage::

    python -m repro.tools.fuzz_cli --seed 0 --units 50
    python -m repro.tools.fuzz_cli --units 500 --workers 4 \\
        --metrics fuzz.jsonl

Generates adversarial, valid-by-construction translation units
(:mod:`repro.corpus.fuzz`), differentially checks each against both
pipelines over sampled configurations (:mod:`repro.qa`), and ddmin-
shrinks any disagreement into a minimal reproducer.  Units are
scheduled through :mod:`repro.engine`'s worker pool with the engine's
per-unit deadlines, retries, and JSON-lines metrics (counterexamples
appear as ``counterexample`` events).

Exit status: 0 when every unit agreed, 1 when any disagreement was
found, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.corpus.fuzz import FuzzSpec
from repro.engine import MetricsStream, format_report
from repro.qa.harness import run_fuzz


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superc-fuzz",
        description="Differential per-configuration fuzzing of the "
                    "configuration-preserving pipeline against the "
                    "single-configuration oracle.")
    parser.add_argument("--units", type=int, default=50, metavar="N",
                        help="number of generated units (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first unit seed (unit i uses seed+i)")
    parser.add_argument("--variables", type=int, default=3, metavar="N",
                        help="configuration variables per unit")
    parser.add_argument("--items", type=int, default=8, metavar="N",
                        help="generated items per unit")
    parser.add_argument("--weight", action="append", default=[],
                        metavar="FEATURE=N",
                        help="override a feature weight (features: "
                             + ", ".join(FuzzSpec.FEATURES) + ")")
    parser.add_argument("--max-configs", type=int, default=12,
                        metavar="N",
                        help="configurations sampled per unit")
    parser.add_argument("--no-parse", action="store_true",
                        help="compare token streams only (skip the "
                             "parser stage)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes")
    parser.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="per-unit deadline (0 disables)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report disagreements without minimizing")
    parser.add_argument("--shrink-budget", type=int, default=200,
                        metavar="N",
                        help="max predicate evaluations per shrink")
    parser.add_argument("--metrics", metavar="PATH",
                        help="append JSON-lines events to PATH "
                             "('-' for stdout)")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregate report as JSON")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-counterexample sources")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace_event JSON of the "
                             "run: per-unit lanes plus the engine's "
                             "scheduling spans")
    return parser


def parse_weights(pairs: List[str],
                  parser: argparse.ArgumentParser) -> dict:
    weights = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or name not in FuzzSpec.FEATURES:
            parser.error(f"bad --weight {pair!r} (features: "
                         + ", ".join(FuzzSpec.FEATURES) + ")")
        try:
            weights[name] = int(value)
        except ValueError:
            parser.error(f"bad --weight {pair!r}: weight must be an "
                         "integer")
    return weights


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.units <= 0:
        parser.error("--units must be positive")
    spec = FuzzSpec(variables=args.variables, items=args.items,
                    weights=parse_weights(args.weight, parser))

    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
    sink = sys.stdout if args.metrics == "-" else args.metrics
    with MetricsStream(sink) as metrics:
        outcome = run_fuzz(units=args.units, seed=args.seed, spec=spec,
                           workers=args.workers,
                           timeout_seconds=args.timeout,
                           max_configs=args.max_configs,
                           parse=not args.no_parse,
                           do_shrink=not args.no_shrink,
                           shrink_budget=args.shrink_budget,
                           metrics=metrics, tracer=tracer)

    report = outcome.report
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
        payload["counterexamples"] = [ce.to_record()
                                      for ce in outcome.counterexamples]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(report))
        for ce in outcome.counterexamples:
            print(f"counterexample (seed {ce.seed}, {ce.kind}, "
                  f"{ce.to_record()['original_lines']} -> "
                  f"{ce.to_record()['shrunk_lines']} lines):")
            print(f"  config: {ce.config or '{}'}")
            print(f"  {ce.detail}")
            if args.verbose:
                for line in ce.shrunk.splitlines():
                    print(f"  | {line}")
    return 0 if outcome.clean else 1


if __name__ == "__main__":
    sys.exit(main())
