"""Command-line interface: parse one C file in all configurations.

Usage::

    python -m repro.tools.parse_cli FILE.c [-I DIR]... [options]

Prints a parse summary; optionally dumps the preprocessed token tree
(``--preprocess-only``), the AST (``--dump-ast``), preprocessor
statistics (``--stats``), per-configuration projections
(``--project defined:CONFIG_X ...``), or a machine-readable summary
(``--json``, including per-phase timing and the observability profile
when tracing).  ``--trace FILE`` writes a Chrome trace_event JSON of
the run (load in chrome://tracing or Perfetto); ``--profile`` prints
the per-unit profile (phase wall times, FMLR/BDD/cpp counters).

Exit status:

====  ==========================================================
code  meaning
====  ==========================================================
0     every configuration parsed cleanly
1     some configuration failed to parse (no degradation)
2     partial result — configurations were confined or dropped
      (``degraded``); also: the input file cannot be read
3     fatal error — a TRUE-condition preprocessor or lexer error
      (no configuration survives)
====  ==========================================================
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cpp import PreprocessorError, RealFileSystem, render
from repro.lexer.lexer import LexerError
from repro.parser.ast import dump, iter_tokens, project
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.superc import (STATUS_DEGRADED, STATUS_OK,
                          STATUS_PARSE_FAILED, SuperC)

EXIT_BY_STATUS = {STATUS_OK: 0, STATUS_PARSE_FAILED: 1,
                  STATUS_DEGRADED: 2}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superc-parse",
        description="Configuration-preserving C parsing (SuperC).")
    parser.add_argument("file", help="C source file to parse")
    parser.add_argument("-I", "--include", action="append",
                        default=[], metavar="DIR",
                        help="add an include search directory")
    parser.add_argument("-D", "--define", action="append", default=[],
                        metavar="NAME[=VALUE]",
                        help="predefine an object-like macro")
    parser.add_argument("--preprocess-only", action="store_true",
                        help="stop after preprocessing; print the "
                             "conditional token tree")
    parser.add_argument("--dump-ast", action="store_true",
                        help="print the AST with static choice nodes")
    parser.add_argument("--stats", action="store_true",
                        help="print preprocessor and parser statistics")
    parser.add_argument("--project", action="append", default=[],
                        metavar="VAR", dest="projections",
                        help="project onto a configuration enabling "
                             "the given BDD variable (repeatable)")
    parser.add_argument("--optimization", default="Shared, Lazy, & Early",
                        choices=sorted(OPTIMIZATION_LEVELS),
                        help="FMLR optimization level")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON summary "
                             "instead of the text report")
    parser.add_argument("--trace", metavar="FILE",
                        help="record the run with repro.obs and write "
                             "a Chrome trace_event JSON file "
                             "(chrome://tracing / Perfetto)")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-unit observability "
                             "profile (per-phase wall time, FMLR/BDD/"
                             "preprocessor counters)")
    return parser


def parse_defines(pairs: List[str]) -> dict:
    defines = {}
    for pair in pairs:
        name, _sep, value = pair.partition("=")
        defines[name] = value or "1"
    return defines


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    tracer = None
    if args.trace or args.profile:
        from repro.obs import Tracer
        tracer = Tracer()
    superc = SuperC(RealFileSystem(), include_paths=args.include,
                    extra_definitions=parse_defines(args.define),
                    options=OPTIMIZATION_LEVELS[args.optimization],
                    tracer=tracer)
    if args.preprocess_only:
        text = superc.fs.read(args.file)
        if text is None:
            print(f"error: cannot read {args.file}", file=sys.stderr)
            return 2
        unit = superc.preprocess_source(text, args.file)
        print(render(unit.tree))
        if args.stats:
            _print_stats(unit.stats.as_dict())
        return 0
    try:
        result = superc.parse_file(args.file)
    except FileNotFoundError:
        if args.json:
            print(json.dumps({"unit": args.file, "status": "error",
                              "error": "cannot read file"}))
        print(f"error: cannot read {args.file}", file=sys.stderr)
        return 2
    except (PreprocessorError, LexerError) as error:
        # A hard failure: the error holds under the TRUE condition, so
        # no configuration survives confinement.
        if args.json:
            print(json.dumps({"unit": args.file, "status": "error",
                              "error": str(error)}))
        print(f"error: {error}", file=sys.stderr)
        return 3
    if args.trace:
        from repro.obs import to_chrome_trace, write_chrome_trace
        write_chrome_trace(args.trace, to_chrome_trace(tracer))
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.json:
        from repro.engine.results import record_from_result
        record = record_from_result(args.file, result,
                                    seconds=result.timing.total)
        print(json.dumps(record, indent=2, sort_keys=True))
        return EXIT_BY_STATUS.get(record["status"], 1)
    if result.status == STATUS_OK:
        status = "ok"
    elif result.status == STATUS_DEGRADED:
        status = ("degraded — some configurations confined or "
                  "dropped; partial AST")
    else:
        status = "FAILED in some configurations"
    print(f"{args.file}: {status}")
    print(f"  configurations accepted: {len(result.parse.accepted)} "
          f"subparser group(s); failures: {len(result.failures)}")
    print(f"  subparsers (max): {result.parse.stats.max_subparsers}; "
          f"forks: {result.parse.stats.forks}; "
          f"merges: {result.parse.stats.merges}")
    print(f"  latency: lex {result.timing.lex:.3f}s, preprocess "
          f"{result.timing.preprocess:.3f}s, parse "
          f"{result.timing.parse:.3f}s")
    for failure in result.failures[:5]:
        print(f"  error: {failure}")
    for diag in result.diagnostics[:8]:
        origin = f" at {diag.origin}" if diag.origin else ""
        print(f"  {diag.severity} [{diag.phase}]{origin} under "
              f"{diag.condition.to_expr_string()}: {diag.message}")
    if args.profile and result.profile is not None:
        print(result.profile.format_summary())
    if args.stats:
        _print_stats(result.unit.stats.as_dict())
    if args.dump_ast:
        print(dump(result.ast))
    for variable in args.projections:
        assignment = {variable: True}
        projected = project(result.ast, assignment)
        tokens = " ".join(t.text for t in iter_tokens(projected))
        print(f"--- projection [{variable}] ---")
        print(tokens)
    return EXIT_BY_STATUS.get(result.status, 1)


def _print_stats(stats: dict) -> None:
    print("  preprocessor statistics:")
    for key, value in stats.items():
        print(f"    {key}: {value}")


if __name__ == "__main__":
    sys.exit(main())
