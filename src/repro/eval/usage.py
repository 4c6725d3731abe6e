"""Preprocessor-usage measurements: Table 2 and Table 3.

Table 2 is the *developer's view*: simple line counts over individual
files (the paper used cloc/grep/wc).  Table 3 is the *tool's view*:
per-compilation-unit statistics gathered by instrumenting the
configuration-preserving preprocessor and parser, reported as
50th·90th·100th percentiles across compilation units.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Set, Tuple

from repro.corpus import KernelCorpus
from repro.cpp import Preprocessor, ReadRecorder
from repro.parser.ast import Node, StaticChoice
from repro.superc import SuperC, SuperCResult

_DIRECTIVE = re.compile(r"^\s*#\s*(\w+)")
_COMMENT_LINE = re.compile(r"^\s*(//.*)?$")


def percentiles(values: List[float]) -> Tuple[float, float, float]:
    """The paper's 50th · 90th · 100th percentile triple."""
    if not values:
        return (0, 0, 0)
    ordered = sorted(values)
    n = len(ordered)

    def pct(p: float) -> float:
        index = min(n - 1, max(0, int(round(p * (n - 1)))))
        return ordered[index]

    return (pct(0.50), pct(0.90), ordered[-1])


# ---------------------------------------------------------------------------
# Table 2: the developer's view
# ---------------------------------------------------------------------------

class DirectiveCounts:
    """One Table 2a row: total plus C-file/header split."""

    def __init__(self, total: int, in_c: int, in_headers: int):
        self.total = total
        self.in_c = in_c
        self.in_headers = in_headers

    @property
    def pct_c(self) -> float:
        return 100.0 * self.in_c / self.total if self.total else 0.0

    @property
    def pct_headers(self) -> float:
        return (100.0 * self.in_headers / self.total
                if self.total else 0.0)


def developers_view(corpus: KernelCorpus) -> Dict[str, DirectiveCounts]:
    """Table 2a: directives vs lines of code, split C files/headers."""
    rows = {key: [0, 0] for key in
            ("loc", "all_directives", "define", "conditional",
             "include")}

    for path, text in corpus.files.items():
        is_header = path.endswith(".h")
        slot = 1 if is_header else 0
        in_block_comment = False
        for line in text.splitlines():
            stripped = line.strip()
            if in_block_comment:
                if "*/" in stripped:
                    in_block_comment = False
                continue
            if stripped.startswith("/*"):
                if "*/" not in stripped:
                    in_block_comment = True
                continue
            if not stripped or _COMMENT_LINE.match(stripped):
                continue
            rows["loc"][slot] += 1
            match = _DIRECTIVE.match(stripped)
            if not match:
                continue
            keyword = match.group(1)
            rows["all_directives"][slot] += 1
            if keyword == "define":
                rows["define"][slot] += 1
            elif keyword in ("if", "ifdef", "ifndef"):
                rows["conditional"][slot] += 1
            elif keyword == "include":
                rows["include"][slot] += 1

    return {key: DirectiveCounts(c + h, c, h)
            for key, (c, h) in rows.items()}


def found_paths(reads: Dict[str, Optional[str]]) -> Set[str]:
    """The paths of a read-set that were read; a None digest is a
    failed search-path probe."""
    return {path for path, digest in reads.items() if digest is not None}


def unit_read_set(corpus: KernelCorpus, unit: str,
                  include_paths: Optional[Sequence[str]] = None) \
        -> Set[str]:
    """Every file one preprocessor run of ``unit`` reads, computed
    includes resolved (§2.1); no parse.  Raises what the preprocessor
    raises."""
    fs = corpus.filesystem()
    recorder = ReadRecorder(fs)
    paths = corpus.include_paths if include_paths is None \
        else include_paths
    Preprocessor(recorder, include_paths=paths).preprocess(
        fs.read(unit), unit)
    return found_paths(recorder.reads)


def top_included_headers(
        corpus: KernelCorpus, count: int = 5,
        include_paths: Optional[Sequence[str]] = None,
        on_error: Optional[Callable[[str, Exception], None]] = None,
        read_sets: Optional[Mapping[str, Set[str]]] = None) \
        -> List[Tuple[str, int, float]]:
    """Table 2b: headers ranked by how many C files' read-sets hold
    them; returns (header, files, percent-of-C-files).

    ``read_sets`` holds the read-sets already known (a parse's
    ``found_paths(result.reads)``), so those C files are not
    preprocessed again.  A C file that fails to preprocess raises, or,
    with ``on_error``, is reported to it and left out of the counts and
    the percentages.
    """
    known = read_sets or {}
    counts: Counter = Counter()
    counted = 0
    for c_file in corpus.c_files():
        try:
            reads = known[c_file] if c_file in known \
                else unit_read_set(corpus, c_file, include_paths)
        except Exception as error:
            if on_error is None:
                raise
            on_error(c_file, error)
            continue
        counted += 1
        counts.update(path for path in reads if path.endswith(".h"))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    total = counted or 1
    return [(header, hits, 100.0 * hits / total)
            for header, hits in ranked[:count]]


# ---------------------------------------------------------------------------
# Table 3: the tool's view
# ---------------------------------------------------------------------------

# Table 3 rows: (label, attribute of the per-unit stats dict).
TOOLS_VIEW_ROWS = [
    ("Macro Definitions", "macro_definitions"),
    ("  Contained in conditionals", "definitions_in_conditionals"),
    ("  Redefinitions", "redefinitions"),
    ("Macro Invocations", "invocations"),
    ("  Trimmed", "trimmed"),
    ("  Hoisted", "hoisted_invocations"),
    ("  Nested invocations", "nested_invocations"),
    ("  Built-in macros", "builtin_invocations"),
    ("Token-Pasting", "token_pastings"),
    ("  Hoisted", "hoisted_pastings"),
    ("Stringification", "stringifications"),
    ("  Hoisted", "hoisted_stringifications"),
    ("File Includes", "includes"),
    ("  Hoisted", "hoisted_includes"),
    ("  Computed includes", "computed_includes"),
    ("  Reincluded headers", "reincluded_headers"),
    ("Static Conditionals", "conditionals"),
    ("  Hoisted", "hoisted_conditionals"),
    ("  Max. depth", "max_conditional_depth"),
    ("  With non-boolean expressions", "non_boolean_expressions"),
    ("Error Directives", "error_directives"),
    ("C Declarations & Statements", "declarations_and_statements"),
    ("  Containing conditionals", "constructs_with_conditionals"),
    ("Typedef Names", "typedef_names"),
    ("  Ambiguously defined names", "ambiguous_names"),
]


def unit_statistics(superc: SuperC, unit: str) -> Dict[str, int]:
    """All Table 3 statistics for one compilation unit."""
    return result_statistics(superc.parse_file(unit))


def result_statistics(result: SuperCResult) -> Dict[str, int]:
    """All Table 3 statistics of one unit's ``SuperCResult``."""
    stats = dict(result.unit.stats.as_dict())
    declarations, with_conditionals = _count_constructs(result.ast)
    stats["declarations_and_statements"] = declarations
    stats["constructs_with_conditionals"] = with_conditionals
    stats["typedef_names"] = result.symbol_stats.typedef_names
    stats["ambiguous_names"] = result.symbol_stats.ambiguous_names
    return stats


def tools_view(superc: SuperC, units: List[str]) \
        -> Dict[str, Tuple[float, float, float]]:
    """Table 3: percentiles across compilation units for every row."""
    return tools_view_table([unit_statistics(superc, unit)
                             for unit in units])


def tools_view_table(per_unit: List[Dict[str, int]]) \
        -> Dict[str, Tuple[float, float, float]]:
    """Table 3 from each unit's :func:`result_statistics`."""
    table: Dict[str, Tuple[float, float, float]] = {}
    for label, attribute in TOOLS_VIEW_ROWS:
        values = [stats.get(attribute, 0) for stats in per_unit]
        table[label] = percentiles(values)
    return table


_CONSTRUCT_NAMES = frozenset({
    "Declaration", "FunctionDefinition", "ExpressionStatement",
    "IfStatement", "IfElseStatement", "SwitchStatement",
    "WhileStatement", "DoStatement", "ForStatement", "GotoStatement",
    "ContinueStatement", "BreakStatement", "ReturnStatement",
    "CompoundStatement", "LabeledStatement", "CaseStatement",
    "DefaultStatement", "EmptyStatement", "AsmStatement",
})


def _count_constructs(ast: Any) -> Tuple[int, int]:
    """Count C declarations & statements, and how many contain static
    choice nodes (Table 3's final parser rows)."""
    total = 0
    with_conditionals = 0
    stack = [ast]
    while stack:
        value = stack.pop()
        if isinstance(value, Node):
            if value.name in _CONSTRUCT_NAMES:
                total += 1
                if _contains_choice(value):
                    with_conditionals += 1
            stack.extend(value.children)
        elif isinstance(value, StaticChoice):
            stack.extend(branch for _cond, branch in value.branches)
        elif isinstance(value, tuple):
            stack.extend(value)
    return total, with_conditionals


def _contains_choice(node: Node) -> bool:
    stack = list(node.children)
    while stack:
        value = stack.pop()
        if isinstance(value, StaticChoice):
            return True
        if isinstance(value, Node):
            stack.extend(value.children)
        elif isinstance(value, tuple):
            stack.extend(value)
    return False
