"""Command-line interface: preprocessor-usage report for a source tree.

Usage::

    python -m repro.tools.report_cli SRC_DIR [-I DIR]... [--units GLOB]

Walks a directory of C sources and prints the paper's Table 2
(developer's view) and, if units parse, Table 3 percentiles (tool's
view).
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys
from typing import Dict, List, Optional, Set

from repro.corpus import KernelCorpus, KernelSpec
from repro.eval import (TOOLS_VIEW_ROWS, developers_view, found_paths,
                        result_statistics, tools_view_table,
                        top_included_headers)
from repro.superc import SuperC


def load_tree(root: str) -> Dict[str, str]:
    files: Dict[str, str] = {}
    for directory, _subdirs, names in os.walk(root):
        for name in names:
            if not name.endswith((".c", ".h")):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, root)
            try:
                with open(path, "r", encoding="utf-8",
                          errors="replace") as handle:
                    files[relative.replace(os.sep, "/")] = handle.read()
            except OSError:
                continue
    return files


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superc-report",
        description="Preprocessor-usage survey (Tables 2-3).")
    parser.add_argument("root", help="source tree root directory")
    parser.add_argument("-I", "--include", action="append", default=[],
                        metavar="DIR",
                        help="include path, relative to the root")
    parser.add_argument("--units", default="*.c", metavar="GLOB",
                        help="glob selecting compilation units")
    parser.add_argument("--skip-tools-view", action="store_true",
                        help="skip Table 3's parses (Table 2b then "
                             "preprocesses every C file)")
    parser.add_argument("--trace", metavar="FILE",
                        help="trace the tool's-view parses with "
                             "repro.obs and write Chrome trace_event "
                             "JSON")
    parser.add_argument("--profile", action="store_true",
                        help="print the aggregate observability "
                             "profile of the tool's-view parses")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    files = load_tree(args.root)
    if not files:
        print(f"error: no C sources under {args.root}",
              file=sys.stderr)
        return 2
    units = [path for path in sorted(files)
             if path.endswith(".c")
             and fnmatch.fnmatch(path, args.units)]
    corpus = KernelCorpus(KernelSpec(), files, units, [])
    include_paths = args.include or ["include", "."]
    failed: Set[str] = set()

    def skip(unit: str, error: Exception) -> None:
        if unit not in failed:
            failed.add(unit)
            print(f"  (skipping {unit}: {error})", file=sys.stderr)

    # Table 3's parses come first: each unit is parsed once, and its
    # read-set serves Table 2b, which preprocesses only the C files
    # left over (not selected, or failed to parse).
    unit_stats: Dict[str, Dict[str, int]] = {}
    read_sets: Dict[str, Set[str]] = {}
    tracer = None
    if not args.skip_tools_view:
        if args.trace or args.profile:
            from repro.obs import Tracer
            tracer = Tracer()
        superc = SuperC(corpus.filesystem(), include_paths=include_paths,
                        tracer=tracer)
        for unit in units:
            try:
                result = superc.parse_file(unit)
            except Exception as error:
                skip(unit, error)
                continue
            unit_stats[unit] = result_statistics(result)
            read_sets[unit] = found_paths(result.reads)

    dev = developers_view(corpus)
    print("Table 2a: directives vs lines of code")
    labels = {"loc": "LoC", "all_directives": "All Directives",
              "define": "#define",
              "conditional": "#if,#ifdef,#ifndef",
              "include": "#include"}
    print(f"{'construct':<22}{'total':>8}{'C files':>10}{'headers':>10}")
    for key, label in labels.items():
        row = dev[key]
        print(f"{label:<22}{row.total:>8}{row.pct_c:>9.0f}%"
              f"{row.pct_headers:>9.0f}%")
    print("\nTable 2b: most frequently included headers")
    for header, count, pct in top_included_headers(
            corpus, include_paths=include_paths, on_error=skip,
            read_sets=read_sets):
        print(f"  {header:<44}{count:>4} C files ({pct:.0f}%)")

    if args.skip_tools_view or not units:
        return 0
    if not unit_stats:
        print("\n(no unit preprocessed cleanly; tool's view skipped)")
        return 0
    print(f"\nTable 3: tool's view over {len(unit_stats)} unit(s) "
          "(50th/90th/100th)")
    table = tools_view_table(list(unit_stats.values()))
    for label, _attr in TOOLS_VIEW_ROWS:
        p50, p90, p100 = table[label]
        print(f"{label:<38}{p50:>8.0f} · {p90:>6.0f} · {p100:>6.0f}")
    if args.trace:
        from repro.obs import to_chrome_trace, write_chrome_trace
        write_chrome_trace(args.trace, to_chrome_trace(tracer))
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.profile:
        from repro.obs import Profile
        profile = Profile.from_window(tracer, ())
        print()
        print(profile.format_summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
