"""The configuration-preserving preprocessor driver (§3).

Accepts C files, performs all preprocessor operations while preserving
static conditionals, and produces *compilation units*: token trees in
which the only remaining preprocessor construct is the
:class:`~repro.cpp.tree.Conditional` node.

Design notes:

* Directives are processed in document order.  Text tokens are tagged
  with the macro-table *version* at which they appeared and collected
  into per-branch buffers; macro expansion runs once at the end over
  the whole tree, replaying table history per token, which keeps
  deferred invocations (spanning lines and conditionals) correct.
* Conditional-expression evaluation (#if/#elif) happens eagerly: the
  expression's macros are expanded (protecting ``defined``), implicit
  conditionals are hoisted around the expression, and each flat branch
  is parsed, constant-folded, and converted to a BDD (§3.2).
* ``#error`` branches are recorded as infeasible and their tokens are
  dropped (Table 1: "Ignore erroneous branches").  ``#line``,
  ``#warning``, and ``#pragma`` become annotations.
* Error confinement generalizes the ``#error`` treatment to *every*
  preprocessing failure: a bad ``#if`` expression, an unresolvable or
  too-deep include, a malformed ``#define``/``#undef``, or a broken
  macro invocation occurring under a non-TRUE presence condition is
  recorded as a condition-scoped :class:`repro.errors.Diagnostic`,
  its configurations join ``error_conditions`` (so
  ``feasible_condition`` excludes them), the failing branch's tokens
  are pruned, and processing continues.  Hard
  :class:`~repro.cpp.errors.PreprocessorError` is reserved for
  failures whose condition is TRUE — i.e. every configuration is
  broken — and for structural damage (unbalanced conditionals).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bdd import BDDManager, BDDNode
from repro.cpp.conditions import ConditionConverter, defined_var
from repro.cpp.errors import PreprocessorError
from repro.cpp.expansion import Expander, ExpansionStats
from repro.cpp.expression import ExprError, parse_expression
from repro.cpp.hoist import hoist
from repro.cpp.includes import (DictFileSystem, FileSystem, IncludeResolver,
                                guard_of_lines)
from repro.cpp.macro_table import (FREE, UNDEFINED, MacroDefinition,
                                   MacroTable)
from repro.cpp.tree import Conditional, TokenTree, max_depth
from repro.errors import (Diagnostic, PHASE_CONDITION, PHASE_EXPANSION,
                          PHASE_INCLUDE, PHASE_LEX, PHASE_PREPROCESS,
                          ResourceBudget, SEVERITY_CONFIG,
                          SEVERITY_WARNING, origin_of)
from repro.lexer import lex_logical_lines
from repro.lexer.lexer import LexerError
from repro.lexer.tokens import Token, TokenKind
from repro.obs.tracer import NULL_TRACER

_MAX_INCLUDE_DEPTH = ResourceBudget.DEFAULT_INCLUDE_DEPTH

# Directives whose handlers manage error confinement themselves: the
# conditional family must keep #if/#endif balanced (so confinement
# happens around the condition computation, never around the frame
# push/pop), and #error records its own condition.
_SELF_CONFINED = frozenset(
    ("if", "ifdef", "ifndef", "elif", "else", "endif", "error"))

# gcc-style default built-ins (the "ground truth" of §2.1); callers may
# override or extend.
DEFAULT_BUILTINS = {
    "__STDC__": "1",
    "__STDC_VERSION__": "199901L",
    "__STDC_HOSTED__": "1",
    "__GNUC__": "4",
    "__GNUC_MINOR__": "5",
    "__x86_64__": "1",
    "__linux__": "1",
    "__SIZEOF_LONG__": "8",
    "__SIZEOF_POINTER__": "8",
    "__CHAR_BIT__": "8",
}


class PreprocessorStats:
    """Counters backing Table 3 (the tool's view of preprocessor usage)."""

    def __init__(self) -> None:
        self.macro_definitions = 0
        self.definitions_in_conditionals = 0
        self.redefinitions = 0
        self.trimmed = 0
        self.invocations = 0
        self.nested_invocations = 0
        self.builtin_invocations = 0
        self.hoisted_invocations = 0
        self.token_pastings = 0
        self.hoisted_pastings = 0
        self.stringifications = 0
        self.hoisted_stringifications = 0
        self.includes = 0
        self.hoisted_includes = 0
        self.computed_includes = 0
        self.reincluded_headers = 0
        self.conditionals = 0
        self.hoisted_conditionals = 0
        self.max_conditional_depth = 0
        self.non_boolean_expressions = 0
        self.error_directives = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class CompilationUnit:
    """The preprocessor's output for one C file."""

    def __init__(self, filename: str, tree: TokenTree,
                 manager: BDDManager, table: MacroTable,
                 stats: PreprocessorStats,
                 error_conditions: List[Tuple[BDDNode, str]],
                 warnings: List[Tuple[BDDNode, str]],
                 diagnostics: Optional[List[Diagnostic]] = None):
        self.filename = filename
        self.tree = tree
        self.manager = manager
        self.table = table
        self.stats = stats
        self.error_conditions = error_conditions
        self.warnings = warnings
        # Structured, condition-scoped diagnostics (confined errors
        # first, then warnings); see repro.errors.
        self.diagnostics: List[Diagnostic] = diagnostics or []

    @property
    def feasible_condition(self) -> BDDNode:
        """TRUE minus every ``#error`` branch's presence condition."""
        condition = self.manager.true
        for error_cond, _message in self.error_conditions:
            condition = condition & ~error_cond
        return condition


class _Frame:
    """One open static conditional during processing."""

    __slots__ = ("outer_abs", "remaining", "branches", "current_cond",
                 "buffer", "erroneous", "seen_else", "file", "synthetic")

    def __init__(self, outer_abs: BDDNode, first_cond: BDDNode,
                 filename: str, synthetic: bool = False):
        self.outer_abs = outer_abs
        self.remaining = outer_abs & ~first_cond
        self.branches: List[Tuple[BDDNode, TokenTree]] = []
        self.current_cond = first_cond
        self.buffer: TokenTree = []
        self.erroneous = False
        self.seen_else = False
        self.file = filename
        self.synthetic = synthetic  # wraps an include under a condition


def _record_error(errors: List[Tuple[BDDNode, str]],
                  diagnostics: List[Diagnostic], tracer: Any,
                  condition: BDDNode, message: str, phase: str,
                  token: Optional[Token] = None) -> None:
    """Record a confined, condition-scoped error: its configurations
    join ``error_conditions`` (pruning them from ``feasible_condition``)
    and a structured diagnostic is kept."""
    for known_cond, known_msg in errors:
        if known_cond is condition and known_msg == message:
            return  # already recorded (e.g. hoist-retry re-expansion)
    errors.append((condition, message))
    diagnostics.append(
        Diagnostic(condition, SEVERITY_CONFIG, phase, message,
                   origin_of(token)))
    if tracer.enabled:
        tracer.event("diagnostic", phase=phase, origin=origin_of(token))
        tracer.count("cpp.confined_errors")


def _expansion_sink(record_error: Any, condition: BDDNode,
                    error: PreprocessorError) -> bool:
    """Expander callback: absorb macro-expansion failures occurring
    under a non-TRUE condition (the invocation is dropped)."""
    if condition.is_true():
        return False
    record_error(condition, str(error), PHASE_EXPANSION,
                 getattr(error, "token", None))
    return True


class Preprocessor:
    """Configuration-preserving preprocessor for one compilation unit."""

    def __init__(self, fs: Optional[FileSystem] = None,
                 include_paths: Sequence[str] = (),
                 builtins: Optional[Dict[str, str]] = None,
                 manager: Optional[BDDManager] = None,
                 extra_definitions: Optional[Dict[str, str]] = None,
                 budget: Optional[ResourceBudget] = None,
                 tracer: Any = None):
        self.fs = fs or DictFileSystem({})
        self.resolver = IncludeResolver(self.fs, include_paths)
        self.manager = manager or BDDManager()
        # Observability hooks (repro.obs): per-file spans, the final
        # macro-expansion span, hoist expansion factors, and diagnostic
        # events.  NULL_TRACER makes every hook a no-op.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.table = MacroTable(self.manager)
        self.stats = PreprocessorStats()
        self.budget = budget or ResourceBudget()
        self._errors: List[Tuple[BDDNode, str]] = []
        self.diagnostics: List[Diagnostic] = []
        # Partials over the error lists, not bound methods: an expander
        # holding a bound method of this preprocessor would make a
        # reference cycle, and the unit's macro table and buffers would
        # then wait for the cycle collector instead of dying with it.
        self._record_error = functools.partial(
            _record_error, self._errors, self.diagnostics, self.tracer)
        sink = functools.partial(_expansion_sink, self._record_error)
        self._expansion_stats = ExpansionStats()
        self.expander = Expander(self.table, self.manager,
                                 self._expansion_stats, sink=sink,
                                 tracer=self.tracer)
        self.directive_expander = Expander(self.table, self.manager,
                                           self._expansion_stats,
                                           protect_defined=True,
                                           sink=sink, tracer=self.tracer)
        builtin_map = DEFAULT_BUILTINS if builtins is None else builtins
        for name, body in builtin_map.items():
            self.table.define_builtin(name, body)
        for name, body in (extra_definitions or {}).items():
            self.table.define_builtin(name, body)
        # State reset per run:
        self._frames: List[_Frame] = []
        self._root: TokenTree = []
        self._file_stack: List[str] = []
        self._included: Dict[str, Optional[str]] = {}  # path -> guard
        self.guard_macros: set = set()
        self._warnings: List[Tuple[BDDNode, str]] = []
        self._pending_annotations: Tuple[str, ...] = ()
        # Time spent lexing (separated out for the Figure 10 latency
        # breakdown); total preprocessing time is measured by callers.
        self.lex_seconds = 0.0

    # -- public API -----------------------------------------------------------

    def preprocess(self, text: str,
                   filename: str = "<input>") -> CompilationUnit:
        """Preprocess source text into a compilation unit."""
        self._process_file(filename, text)
        if self._frames:
            raise PreprocessorError(
                f"unterminated conditional in {self._frames[-1].file}")
        with self.tracer.span("expand-macros"):
            tree = self.expander.expand(self._root, self.manager.true)
        self._merge_stats(tree)
        diagnostics = list(self.diagnostics)
        diagnostics.extend(
            Diagnostic(cond, SEVERITY_WARNING, PHASE_PREPROCESS, message)
            for cond, message in self._warnings)
        return CompilationUnit(filename, tree, self.manager, self.table,
                               self.stats, self._errors, self._warnings,
                               diagnostics)

    def preprocess_file(self, path: str) -> CompilationUnit:
        """Preprocess a file from the file system."""
        text = self.fs.read(path)
        if text is None:
            raise PreprocessorError(f"cannot read {path!r}")
        return self.preprocess(text, path)

    # -- main loop --------------------------------------------------------------

    def _process_file(self, filename: str, text: str,
                      lines: Optional[List[List[Token]]] = None) -> None:
        """Process one file; ``lines`` are its logical lines when the
        caller has lexed it already (a header's first inclusion)."""
        self._check_include_depth(filename)
        self._file_stack.append(filename)
        entry_depth = len(self._frames)
        # Nested includes recurse through here, so traced runs get the
        # include tree as nested "file" spans for free.
        with self.tracer.span("file", name=filename):
            if lines is None:
                lines = self._lex(filename, text)
            for line in lines:
                if not line:
                    continue
                if line[0].kind is TokenKind.HASH:
                    self._directive(line, filename)
                else:
                    self._text_line(line)
        if len(self._frames) != entry_depth:
            raise PreprocessorError(
                f"conditional opened in {filename} is not closed there")
        self._file_stack.pop()

    def _check_include_depth(self, filename: str) -> None:
        depth_limit = self.budget.max_include_depth
        if len(self._file_stack) > depth_limit:
            raise PreprocessorError(
                f"include depth exceeds {depth_limit} "
                f"(cycle?) at {filename}", phase=PHASE_INCLUDE)

    def _lex(self, filename: str, text: str) -> List[List[Token]]:
        """Lex one file into logical lines, billed to the lex phase.
        Each inclusion lexes afresh: ``_text_line`` stamps versions and
        annotations on the tokens, so inclusions must not share them."""
        with self.tracer.span("lex", file=filename):
            lex_start = time.perf_counter()
            lines = lex_logical_lines(text, filename)
            self.lex_seconds += time.perf_counter() - lex_start
        return lines

    def _abs_condition(self) -> BDDNode:
        if self._frames:
            return self._frames[-1].current_cond
        return self.manager.true

    def _hoist(self, condition: BDDNode, items: Any) -> Any:
        """Hoist via the module-level ``hoist`` (patchable in tests),
        recording the expansion factor when tracing."""
        branches = hoist(condition, items)
        if self.tracer.enabled:
            self.tracer.record("hoist.expansion", len(branches))
        return branches

    # -- error confinement ----------------------------------------------------

    def _confine_or_raise(self, error: PreprocessorError,
                          condition: BDDNode, phase: str) -> None:
        """Confine ``error`` to ``condition`` like an ``#error`` branch,
        or re-raise when every configuration is affected."""
        if condition.is_true():
            raise error
        self._record_error(condition, str(error), phase,
                           getattr(error, "token", None))
        if self._frames:
            frame = self._frames[-1]
            current = frame.current_cond
            if condition is current or condition.equiv(current).is_true():
                # The whole open branch is broken: prune its tokens.
                frame.erroneous = True
                frame.buffer = []

    def _buffer(self) -> TokenTree:
        if self._frames:
            return self._frames[-1].buffer
        return self._root

    def _text_line(self, line: List[Token]) -> None:
        if self._frames and self._frames[-1].erroneous:
            return
        if self._abs_condition().is_false():
            return
        buffer = self._buffer()
        version = self.table.version
        for index, token in enumerate(line):
            token.version = version
            if index == 0 and self._pending_annotations:
                token.annotations = token.annotations + \
                    self._pending_annotations
                self._pending_annotations = ()
            buffer.append(token)

    # -- directives ---------------------------------------------------------------

    def _directive(self, line: List[Token], filename: str) -> None:
        if len(line) < 2 or line[1].kind is not TokenKind.IDENTIFIER:
            if len(line) == 1:
                return  # the null directive '#'
            self._warnings.append(
                (self._abs_condition(),
                 f"{filename}: malformed directive"))
            return
        keyword = line[1].text
        rest = line[2:]
        handler = getattr(self, f"_dir_{keyword}", None)
        if handler is None:
            self._warnings.append(
                (self._abs_condition(),
                 f"{filename}: unknown directive #{keyword}"))
            return
        if keyword in _SELF_CONFINED:
            # Conditional structure must stay balanced, so the if-family
            # confines inside its handlers (a frame is always pushed);
            # #error manages its own recording.
            handler(line[1], rest, filename)
            return
        condition = self._abs_condition()
        try:
            handler(line[1], rest, filename)
        except PreprocessorError as error:
            self._confine_or_raise(error, condition,
                                   getattr(error, "phase",
                                           PHASE_PREPROCESS))

    # conditionals

    def _dir_if(self, origin: Token, rest: List[Token],
                filename: str) -> None:
        self.stats.conditionals += 1
        condition = self._eval_expr(rest, self._abs_condition())
        self._frames.append(
            _Frame(self._abs_condition(), condition, filename))
        self.stats.max_conditional_depth = max(
            self.stats.max_conditional_depth, self._real_depth())

    def _dir_ifdef(self, origin: Token, rest: List[Token],
                   filename: str) -> None:
        self.stats.conditionals += 1
        condition = self._ifdef_condition(origin, rest, negate=False)
        self._frames.append(
            _Frame(self._abs_condition(), condition, filename))
        self.stats.max_conditional_depth = max(
            self.stats.max_conditional_depth, self._real_depth())

    def _dir_ifndef(self, origin: Token, rest: List[Token],
                    filename: str) -> None:
        self.stats.conditionals += 1
        condition = self._ifdef_condition(origin, rest, negate=True)
        self._frames.append(
            _Frame(self._abs_condition(), condition, filename))
        self.stats.max_conditional_depth = max(
            self.stats.max_conditional_depth, self._real_depth())

    def _ifdef_condition(self, origin: Token, rest: List[Token],
                         negate: bool) -> BDDNode:
        absolute = self._abs_condition()
        if not rest or rest[0].kind is not TokenKind.IDENTIFIER:
            error = PreprocessorError("#ifdef/#ifndef requires a name",
                                      origin, phase=PHASE_CONDITION)
            if absolute.is_true():
                raise error
            # Confined: the frame is still pushed (keeping #endif
            # balanced) with a false branch condition, and the whole
            # surrounding branch is recorded erroneous.
            self._record_error(absolute, str(error), PHASE_CONDITION,
                               origin)
            return self.manager.false
        defined = self._defined_bdd(rest[0].text, absolute)
        return (absolute & ~defined) if negate else defined

    def _dir_elif(self, origin: Token, rest: List[Token],
                  filename: str) -> None:
        frame = self._require_frame(origin, "#elif")
        if frame.seen_else:
            raise PreprocessorError("#elif after #else", origin)
        self._finish_branch(frame)
        condition = self._eval_expr(rest, frame.remaining)
        frame.current_cond = condition
        frame.remaining = frame.remaining & ~condition
        frame.buffer = []
        frame.erroneous = False

    def _dir_else(self, origin: Token, rest: List[Token],
                  filename: str) -> None:
        frame = self._require_frame(origin, "#else")
        if frame.seen_else:
            raise PreprocessorError("duplicate #else", origin)
        self._finish_branch(frame)
        frame.seen_else = True
        frame.current_cond = frame.remaining
        frame.remaining = self.manager.false
        frame.buffer = []
        frame.erroneous = False

    def _dir_endif(self, origin: Token, rest: List[Token],
                   filename: str) -> None:
        frame = self._require_frame(origin, "#endif")
        self._finish_branch(frame)
        self._frames.pop()
        branches = [(cond, buffer) for cond, buffer in frame.branches
                    if not cond.is_false()]
        if not branches or all(not buffer for _, buffer in branches):
            return
        if len(branches) == 1 and branches[0][0] is frame.outer_abs:
            # The conditional is vacuous here (e.g. `#if 1`, or a guard's
            # #ifndef on first inclusion): splice the branch inline.
            self._buffer().extend(branches[0][1])
            return
        self._buffer().append(Conditional(branches))

    def _require_frame(self, origin: Token, what: str) -> _Frame:
        if not self._frames:
            raise PreprocessorError(f"{what} without #if", origin)
        return self._frames[-1]

    def _finish_branch(self, frame: _Frame) -> None:
        if not frame.erroneous:
            frame.branches.append((frame.current_cond, frame.buffer))

    def _real_depth(self) -> int:
        return sum(1 for frame in self._frames if not frame.synthetic)

    # macros

    def _dir_define(self, origin: Token, rest: List[Token],
                    filename: str) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENTIFIER:
            raise PreprocessorError("#define requires a name", origin)
        name_token = rest[0]
        name = name_token.text
        condition = self._abs_condition()
        if condition.is_false():
            return
        if self._frames:
            # Table 3: syntactic containment (most definitions sit
            # inside a header's include guard).
            self.stats.definitions_in_conditionals += 1
        if len(rest) > 1 and rest[1].is_punctuator("(") \
                and not rest[1].has_space_before:
            params, variadic, va_name, body_start = \
                self._parse_params(origin, rest, 2)
            body = rest[body_start:]
            definition = MacroDefinition(name, body, params, variadic,
                                         va_name=va_name)
        else:
            definition = MacroDefinition(name, rest[1:])
        self.table.define(definition, condition)

    def _parse_params(self, origin: Token, rest: List[Token],
                      start: int) -> Tuple[List[str], bool,
                                           Optional[str], int]:
        params: List[str] = []
        variadic = False
        va_name: Optional[str] = None
        index = start
        expect_name = True
        while index < len(rest):
            token = rest[index]
            if token.is_punctuator(")"):
                return params, variadic, va_name, index + 1
            if token.is_punctuator(","):
                index += 1
                expect_name = True
                continue
            if token.is_punctuator("..."):
                variadic = True
            elif token.kind is TokenKind.IDENTIFIER and expect_name:
                if index + 1 < len(rest) and \
                        rest[index + 1].is_punctuator("..."):
                    # GNU named variadic: args... collects the rest.
                    variadic = True
                    va_name = token.text
                    index += 1
                else:
                    params.append(token.text)
                expect_name = False
            else:
                raise PreprocessorError(
                    f"malformed macro parameter list near {token.text!r}",
                    origin)
            index += 1
        raise PreprocessorError("unterminated macro parameter list",
                                origin)

    def _dir_undef(self, origin: Token, rest: List[Token],
                   filename: str) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENTIFIER:
            raise PreprocessorError("#undef requires a name", origin)
        self.table.undefine(rest[0].text, self._abs_condition())

    # includes

    def _dir_include(self, origin: Token, rest: List[Token],
                     filename: str) -> None:
        condition = self._abs_condition()
        if condition.is_false() or \
                (self._frames and self._frames[-1].erroneous):
            return
        operand = self._header_operand(rest)
        if operand is not None:
            name, quoted = operand
            self.stats.includes += 1
            self._do_include(origin, name, quoted, condition, filename)
            return
        # Computed include: expand, hoist, include per branch.
        self.stats.computed_includes += 1
        version = self.table.version
        for token in rest:
            token.version = version
        expanded = self.directive_expander.expand(list(rest), condition)
        branches = self._hoist(condition, expanded)
        if len(branches) > 1:
            self.stats.hoisted_includes += 1
        for branch_cond, tokens in branches:
            if branch_cond.is_false():
                continue
            try:
                operand = self._header_operand(tokens)
                if operand is None:
                    raise PreprocessorError(
                        "computed include does not name a header",
                        origin, phase=PHASE_INCLUDE)
                name, quoted = operand
                self.stats.includes += 1
                self._do_include(origin, name, quoted, branch_cond,
                                 filename)
            except PreprocessorError as error:
                # Confine to this hoisted branch (narrower than the
                # whole directive's condition); the other branches'
                # includes still happen.
                self._confine_or_raise(error, branch_cond, PHASE_INCLUDE)

    @staticmethod
    def _header_operand(tokens: Sequence[Token]) \
            -> Optional[Tuple[str, bool]]:
        if not tokens:
            return None
        first = tokens[0]
        if first.kind is TokenKind.STRING and len(tokens) == 1:
            return first.text[1:-1], True
        if first.is_punctuator("<"):
            parts: List[str] = []
            for token in tokens[1:]:
                if token.is_punctuator(">"):
                    return "".join(parts), False
                parts.append(token.text)
        return None

    def _do_include(self, origin: Token, name: str, quoted: bool,
                    condition: BDDNode, includer: str) -> None:
        """Resolve and process one include.  A failure anywhere inside
        (unresolvable file, depth-budget trip, or an error raised while
        processing the included file) unwinds the conditional and file
        stacks to their state at this include, so the caller can confine
        the error and keep processing the includer."""
        frames_depth = len(self._frames)
        files_depth = len(self._file_stack)
        try:
            path = self.resolver.resolve(name, quoted, includer)
            if path is None:
                raise PreprocessorError(
                    f"cannot find include file {name!r}", origin,
                    phase=PHASE_INCLUDE)
            text = self.fs.read(path)
            lines = None
            if path in self._included:
                guard = self._included[path]
                if guard is not None:
                    already = self.table.defined_condition(guard,
                                                           condition)
                    if (condition & ~already).is_false():
                        return  # guard satisfied everywhere: skip
                self.stats.reincluded_headers += 1
            else:
                # The first inclusion lexes once, for the guard and
                # for processing.  A broken header stays unguarded.
                self._included[path] = None
                try:
                    lines = self._lex(path, text)
                except LexerError:
                    # Past the include-depth budget, the budget is the
                    # error, as for a header that lexes.
                    self._check_include_depth(path)
                    raise
                guard = guard_of_lines(lines)
                self._included[path] = guard
                if guard is not None:
                    self.guard_macros.add(guard)
            if condition is self._abs_condition() or \
                    condition.equiv(self._abs_condition()).is_true():
                self._process_file(path, text, lines)
                return
            # Include under a narrower condition (computed-include
            # branch): wrap the file's output in a synthetic
            # conditional.
            frame = _Frame(self._abs_condition(), condition, path,
                           synthetic=True)
            self._frames.append(frame)
            self._process_file(path, text, lines)
            self._frames.pop()
            if frame.buffer:
                self._buffer().append(
                    Conditional([(condition, frame.buffer)]))
        except PreprocessorError:
            # Unwind anything the failed include left open so the
            # caller can confine the error and keep processing the
            # includer.
            del self._frames[frames_depth:]
            del self._file_stack[files_depth:]
            raise
        except LexerError as error:
            # A lexically broken header is an include failure of this
            # include site: rewrap so the caller's confinement applies
            # (an unguarded broken header still fails hard).
            del self._frames[frames_depth:]
            del self._file_stack[files_depth:]
            raise PreprocessorError(f"broken include file {name!r}: "
                                    f"{error}", origin,
                                    phase=PHASE_LEX) from error

    # diagnostics and annotations

    def _dir_error(self, origin: Token, rest: List[Token],
                   filename: str) -> None:
        message = " ".join(token.text for token in rest)
        condition = self._abs_condition()
        self.stats.error_directives += 1
        if condition.is_false():
            return
        if condition.is_true():
            # Every configuration hits the #error: the unit is unusable.
            raise PreprocessorError(f"#error {message}", origin)
        self._record_error(condition, message, PHASE_PREPROCESS, origin)
        if self._frames:
            frame = self._frames[-1]
            frame.erroneous = True
            frame.buffer = []

    def _dir_warning(self, origin: Token, rest: List[Token],
                     filename: str) -> None:
        message = " ".join(token.text for token in rest)
        if not self._abs_condition().is_false():
            self._warnings.append((self._abs_condition(), message))

    def _dir_pragma(self, origin: Token, rest: List[Token],
                    filename: str) -> None:
        text = "#pragma " + " ".join(token.text for token in rest)
        self._pending_annotations = self._pending_annotations + (text,)

    def _dir_line(self, origin: Token, rest: List[Token],
                  filename: str) -> None:
        text = "#line " + " ".join(token.text for token in rest)
        self._pending_annotations = self._pending_annotations + (text,)

    # -- conditional expressions ------------------------------------------------

    def _eval_expr(self, tokens: List[Token],
                   condition: BDDNode) -> BDDNode:
        """Expand, hoist, parse, fold, and convert a #if expression."""
        if condition.is_false():
            return self.manager.false
        if not tokens:
            error = PreprocessorError("#if with no expression",
                                      phase=PHASE_CONDITION)
            if condition.is_true():
                raise error
            self._record_error(condition, str(error), PHASE_CONDITION)
            return self.manager.false
        version = self.table.version
        for token in tokens:
            token.version = version
        try:
            expanded = self.directive_expander.expand(list(tokens),
                                                      condition)
            branches = self._hoist(condition, expanded)
        except PreprocessorError as error:
            # Expansion/hoisting of the controlling expression failed;
            # the caller still pushes its frame (with a false branch
            # condition), keeping #endif balanced.
            if condition.is_true():
                raise
            self._record_error(condition, str(error),
                               getattr(error, "phase", PHASE_CONDITION),
                               tokens[0])
            return self.manager.false
        if len(branches) > 1:
            self.stats.hoisted_conditionals += 1
        result = self.manager.false
        for branch_cond, branch_tokens in branches:
            if branch_cond.is_false():
                continue
            converter = ConditionConverter(
                self.manager,
                defined_condition=self._make_defined_oracle(branch_cond))
            try:
                expr = parse_expression(branch_tokens)
                branch_bdd = converter.to_bdd(expr)
            except ExprError as error:
                # Parse errors and evaluation errors (e.g. division by
                # zero during constant folding) are hard only when the
                # branch covers every configuration; otherwise the
                # branch is recorded erroneous and contributes false.
                wrapped = PreprocessorError(
                    f"bad conditional expression: {error}",
                    tokens[0], phase=PHASE_CONDITION)
                if branch_cond.is_true():
                    raise wrapped from error
                self._record_error(branch_cond, str(wrapped),
                                   PHASE_CONDITION, tokens[0])
                continue
            result = result | (branch_cond & branch_bdd)
            self.stats.non_boolean_expressions += \
                converter.non_boolean_count
        return result

    def _make_defined_oracle(self, condition: BDDNode):
        def defined_condition(name: str) -> BDDNode:
            return self._defined_bdd(name, condition)
        return defined_condition

    def _defined_bdd(self, name: str, condition: BDDNode) -> BDDNode:
        """The sub-condition of ``condition`` where ``name`` is defined,
        treating free names as config variables (or false for guards)."""
        result = self.manager.false
        for sub_cond, entry in self.table.lookup(name, condition):
            if isinstance(entry, MacroDefinition):
                result = result | sub_cond
            elif entry is FREE and name not in self.guard_macros:
                result = result | \
                    (sub_cond & self.manager.var(defined_var(name)))
            # UNDEFINED and free guards contribute false.
        return result

    # -- stats ---------------------------------------------------------------------

    def _merge_stats(self, tree: TokenTree) -> None:
        stats = self.stats
        expansion = self._expansion_stats
        stats.macro_definitions = self.table.definition_count
        stats.redefinitions = self.table.redefinition_count
        stats.trimmed = self.table.trimmed_count
        stats.invocations = expansion.invocations
        stats.nested_invocations = expansion.nested_invocations
        stats.builtin_invocations = expansion.builtin_invocations
        stats.hoisted_invocations = expansion.hoisted_invocations
        stats.token_pastings = expansion.token_pastings
        stats.hoisted_pastings = expansion.hoisted_pastings
        stats.stringifications = expansion.stringifications
        stats.hoisted_stringifications = expansion.hoisted_stringifications
        stats.max_conditional_depth = max(stats.max_conditional_depth,
                                          max_depth(tree))
