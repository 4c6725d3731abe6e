"""Configuration-preserving macro expansion (§2.1, §3.1).

The expander rewrites a token tree, performing all macro operations
while preserving static conditionals:

* multiply-defined macros propagate their implicit conditional: the
  expansion site becomes a :class:`Conditional` with one branch per
  feasible macro-table entry (Figure 2);
* function-like invocations whose name or arguments span conditionals
  are handled by *region hoisting*: the minimal extent that completes
  the invocation in every branch is flattened with Algorithm 1, each
  flat branch is expanded separately, and the results recombine into a
  conditional (Figures 3–4);
* token pasting and stringification follow C99 semantics; conditionals
  reach them only through pre-expanded arguments, which region hoisting
  has already flattened, so the paper's "hoist conditionals around
  token pasting" (Figure 5) falls out of the same mechanism;
* hide sets (``Token.no_expand``) prevent recursive expansion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Sequence, Tuple

from repro.cpp.errors import IncompleteInvocation, PreprocessorError
from repro.cpp.hoist import hoist, unhoist
from repro.cpp.macro_table import FREE, MacroDefinition, MacroTable
from repro.cpp.tree import Conditional, TokenTree
from repro.lexer.lexer import lex_logical_lines
from repro.lexer.tokens import Token, TokenKind


class ExpansionStats:
    """Counters for Table 3's macro rows."""

    def __init__(self) -> None:
        self.invocations = 0
        self.nested_invocations = 0
        self.builtin_invocations = 0
        self.hoisted_invocations = 0
        self.token_pastings = 0
        self.hoisted_pastings = 0
        self.stringifications = 0
        self.hoisted_stringifications = 0


class Expander:
    """Expands macros in token trees under presence conditions."""

    def __init__(self, table: MacroTable, manager: Any,
                 stats: Optional[ExpansionStats] = None,
                 protect_defined: bool = False, sink=None, tracer=None):
        self.table = table
        self.manager = manager
        self.stats = stats or ExpansionStats()
        # Optional repro.obs tracer; records hoist expansion factors.
        self.tracer = tracer
        # In #if expressions, `defined` and its operand never expand.
        self.protect_defined = protect_defined
        # Error confinement: ``sink(condition, error) -> bool`` is asked
        # to absorb a PreprocessorError occurring under ``condition``.
        # True means confined (the failing invocation is dropped and
        # expansion continues); False re-raises for TRUE-condition
        # failures.  Without a sink every error is hard (legacy).
        self.sink = sink

    def _confined(self, condition: Any, error: PreprocessorError) -> bool:
        return self.sink is not None and self.sink(condition, error)

    # -- entry point --------------------------------------------------------

    def expand(self, items: Sequence, condition: Any,
               allow_incomplete: bool = False) -> TokenTree:
        """Expand ``items`` under ``condition``.

        ``allow_incomplete`` is set when expanding the inside of a
        conditional branch: an invocation running off the end raises
        :class:`IncompleteInvocation` so the caller can hoist wider.
        """
        work: Deque = deque(items)
        out: TokenTree = []
        while work:
            item = work.popleft()
            if isinstance(item, Conditional):
                self._expand_conditional(item, work, out, condition)
                continue
            token = item
            if token.kind is not TokenKind.IDENTIFIER:
                out.append(token)
                continue
            if self.protect_defined and token.text == "defined":
                self._pass_defined(token, work, out)
                continue
            if token.text in token.no_expand:
                out.append(token)
                continue
            entries = self.table.lookup(token.text, condition,
                                        token.version)
            if not any(isinstance(entry, MacroDefinition)
                       for _, entry in entries):
                out.append(token)
                continue
            self._expand_macro(token, entries, work, out, condition,
                               allow_incomplete)
        return out

    # -- conditionals --------------------------------------------------------

    def _expand_conditional(self, item: Conditional, work: Deque,
                            out: TokenTree, condition: Any) -> None:
        try:
            branches = []
            for branch_cond, subtree in item.branches:
                joint = condition & branch_cond
                if joint.is_false():
                    continue
                branches.append(
                    (branch_cond,
                     self.expand(subtree, joint, allow_incomplete=True)))
            if branches:
                out.append(Conditional(branches))
        except IncompleteInvocation:
            # An invocation spans out of this conditional: hoist the
            # conditional together with following items.
            self._hoist_region(None, item, work, out, condition)

    def _pass_defined(self, token: Token, work: Deque,
                      out: TokenTree) -> None:
        """Emit `defined X` / `defined(X)` without expanding X."""
        out.append(token)
        if work and isinstance(work[0], Token) \
                and work[0].is_punctuator("("):
            out.append(work.popleft())
            if work and isinstance(work[0], Token):
                out.append(work.popleft())
            if work and isinstance(work[0], Token) \
                    and work[0].is_punctuator(")"):
                out.append(work.popleft())
        elif work and isinstance(work[0], Token) \
                and work[0].kind is TokenKind.IDENTIFIER:
            out.append(work.popleft())

    # -- macro dispatch -------------------------------------------------------

    def _expand_macro(self, token: Token, entries, work: Deque,
                      out: TokenTree, condition: Any,
                      allow_incomplete: bool) -> None:
        self.stats.invocations += 1
        if token.no_expand:
            self.stats.nested_invocations += 1
        if any(isinstance(entry, MacroDefinition) and entry.is_builtin
               for _, entry in entries):
            self.stats.builtin_invocations += 1

        if len(entries) == 1:
            entry_cond, entry = entries[0]
            if not entry.is_function_like:
                try:
                    body = self._subst_object(entry, token)
                except PreprocessorError as error:
                    if self._confined(condition, error):
                        return
                    raise
                work.extendleft(reversed(body))
                return
            # Function-like with a single definition: fast path when the
            # whole invocation is flat.
            consumed = self._scan_flat_invocation(work)
            if consumed == -1:
                out.append(token)  # no '(' follows: not an invocation
                return
            if consumed >= 0:
                flat = [work.popleft() for _ in range(consumed)]
                try:
                    args = self._parse_args(token, entry, flat)
                    body = self._subst_function(entry, token, args,
                                                condition, hoisted=False)
                except PreprocessorError as error:
                    if self._confined(condition, error):
                        return
                    raise
                work.extendleft(reversed(body))
                return
            # consumed is None-like (-2): a conditional or branch end is
            # in the way; fall through to region hoisting.
            if consumed == -3:
                if allow_incomplete:
                    raise IncompleteInvocation(token.text)
                out.append(token)
                return
        self._hoist_region(token, None, work, out, condition,
                           allow_incomplete)

    def _scan_flat_invocation(self, work: Deque) -> int:
        """Look ahead for a complete flat invocation.

        Returns the number of items forming ``( ... )`` balanced, or
        -1 if the next token is not '(' (not an invocation), -2 if a
        conditional interferes (hoist needed), -3 if input ends inside
        the invocation (incomplete).
        """
        if not work:
            return -3
        first = work[0]
        if isinstance(first, Conditional):
            return -2
        if not first.is_punctuator("("):
            return -1
        depth = 0
        for index, item in enumerate(work):
            if isinstance(item, Conditional):
                return -2
            if item.is_punctuator("("):
                depth += 1
            elif item.is_punctuator(")"):
                depth -= 1
                if depth == 0:
                    return index + 1
        return -3

    # -- region hoisting -------------------------------------------------------

    def _hoist_region(self, head: Optional[Token],
                      first_item: Optional[Conditional], work: Deque,
                      out: TokenTree, condition: Any,
                      allow_incomplete: bool = False) -> None:
        """Grow a region until every hoisted branch expands without
        running off its end, then emit the per-branch expansions.

        Completeness is judged *post-expansion* (the paper interleaves
        parsing of the invocation with hoisting for the same reason):
        an object-like macro may expand to a function-like name whose
        arguments lie beyond the conditional (Figure 4).
        """
        self.stats.hoisted_invocations += 1
        region: List = [head] if head is not None else [first_item]
        while True:
            flat = hoist(condition, region, self.tracer)
            snapshot = vars(self.stats).copy()
            try:
                branches: List[Tuple[Any, TokenTree]] = []
                for branch_cond, tokens in flat:
                    branches.extend(self._expand_flat_branch(
                        tokens, branch_cond, trial=True))
                out.extend(unhoist(branches))
                return
            except IncompleteInvocation:
                for key, value in snapshot.items():
                    setattr(self.stats, key, value)
            if not work:
                if allow_incomplete:
                    raise IncompleteInvocation(
                        head.text if head else "<conditional>")
                # Input genuinely ends here: final pass treats trailing
                # macro names / unterminated invocations as plain tokens.
                branches = []
                for branch_cond, tokens in flat:
                    branches.extend(self._expand_flat_branch(
                        tokens, branch_cond, trial=False))
                out.extend(unhoist(branches))
                return
            region.append(work.popleft())

    def _expand_flat_branch(self, tokens: List[Token], condition: Any,
                            trial: bool) \
            -> List[Tuple[Any, TokenTree]]:
        """Expand one flat hoisted branch; the head may still be
        multiply-defined, so split per macro-table entry (this per-entry
        split is what guarantees progress and prevents the expander from
        re-hoisting the same region forever)."""
        if condition.is_false():
            return []
        if not tokens:
            return [(condition, [])]
        head = tokens[0]
        if head.kind is not TokenKind.IDENTIFIER or \
                head.text in head.no_expand:
            return [(condition,
                     self.expand(tokens, condition,
                                 allow_incomplete=trial))]
        results: List[Tuple[Any, TokenTree]] = []
        for entry_cond, entry in self.table.lookup(
                head.text, condition, head.version):
            try:
                if not isinstance(entry, MacroDefinition):
                    expanded = [head] + self.expand(
                        tokens[1:], entry_cond, allow_incomplete=trial)
                elif not entry.is_function_like:
                    body = self._subst_object(entry, head)
                    expanded = self.expand(body + tokens[1:], entry_cond,
                                           allow_incomplete=trial)
                else:
                    end = _scan_end(tokens, 1)
                    if end is None:
                        shape = _scan_tokens_invocation(tokens, 1)
                        if shape == "incomplete" and trial:
                            # The '(' (or its close) may lie beyond this
                            # branch: demand a wider region.
                            raise IncompleteInvocation(head.text)
                        # Not an invocation in this branch.
                        expanded = [head] + self.expand(
                            tokens[1:], entry_cond, allow_incomplete=trial)
                    else:
                        args = self._parse_args(head, entry, tokens[1:end])
                        body = self._subst_function(entry, head, args,
                                                    entry_cond, hoisted=True)
                        expanded = self.expand(body + tokens[end:],
                                               entry_cond,
                                               allow_incomplete=trial)
            except PreprocessorError as error:
                if self._confined(entry_cond, error):
                    # The branch's configurations are recorded invalid;
                    # it contributes no tokens.
                    results.append((entry_cond, []))
                    continue
                raise
            results.append((entry_cond, expanded))
        return results

    # -- substitution -------------------------------------------------------

    def _subst_object(self, entry: MacroDefinition,
                      head: Token) -> List[Token]:
        hide = head.no_expand | {entry.name}
        body = []
        for index, token in enumerate(entry.body):
            clone = token.copy()
            clone.no_expand = clone.no_expand | hide
            clone.version = head.version
            if index == 0:
                clone.layout = head.layout
            body.append(clone)
        return self._paste_and_flatten(entry, body, {}, head)

    def _parse_args(self, head: Token, entry: MacroDefinition,
                    flat: List[Token]) -> List[List[Token]]:
        """Split ``( ... )`` into comma-separated arguments."""
        if not flat or not flat[0].is_punctuator("("):
            raise PreprocessorError(
                f"malformed invocation of {entry.name!r}", head)
        args: List[List[Token]] = []
        current: List[Token] = []
        depth = 0
        for token in flat:
            if token.is_punctuator("("):
                depth += 1
                if depth == 1:
                    continue
            elif token.is_punctuator(")"):
                depth -= 1
                if depth == 0:
                    break
            elif token.is_punctuator(",") and depth == 1:
                args.append(current)
                current = []
                continue
            current.append(token)
        args.append(current)
        params = entry.params or []
        if len(args) == 1 and not args[0] and not params \
                and not entry.variadic:
            args = []
        if entry.variadic:
            if len(args) < len(params):
                args = args + [[] for _ in range(len(params) - len(args))]
        elif len(args) != len(params):
            if len(params) == 0 and len(args) == 1 and not args[0]:
                args = []
            else:
                raise PreprocessorError(
                    f"macro {entry.name!r} expects {len(params)} "
                    f"argument(s), got {len(args)}", head)
        return args

    def _subst_function(self, entry: MacroDefinition, head: Token,
                        args: List[List[Token]], condition: Any,
                        hoisted: bool) -> TokenTree:
        params = entry.params or []
        raw: dict = {name: args[i] for i, name in enumerate(params)}
        if entry.variadic:
            va: List[Token] = []
            for index in range(len(params), len(args)):
                if index > len(params):
                    comma = Token(TokenKind.PUNCTUATOR, ",",
                                  head.file, head.line, head.col)
                    va.append(comma)
                va.extend(args[index])
            raw[entry.va_name or "__VA_ARGS__"] = va
        hide = head.no_expand | {entry.name}
        body = []
        for token in entry.body:
            clone = token.copy()
            clone.version = head.version
            if token.kind is not TokenKind.IDENTIFIER or \
                    token.text not in raw:
                clone.no_expand = clone.no_expand | hide
            body.append(clone)
        return self._paste_and_flatten(entry, body, raw, head,
                                       condition=condition, hoisted=hoisted,
                                       hide=hide)

    def _paste_and_flatten(self, entry: MacroDefinition,
                           body: List[Token], raw: dict, head: Token,
                           condition: Any = None, hoisted: bool = False,
                           hide: Optional[frozenset] = None) -> TokenTree:
        """Apply # and ##, substitute parameters, and flatten.

        Fragments are lists of tree items; parameters adjacent to # or
        ## substitute their raw tokens, others their pre-expansion.
        """
        hide = hide if hide is not None else (head.no_expand | {entry.name})
        va_param = (entry.va_name or "__VA_ARGS__") if entry.variadic \
            else None
        fragments: List[TokenTree] = []
        index = 0
        while index < len(body):
            token = body[index]
            nxt = body[index + 1] if index + 1 < len(body) else None
            # GNU comma deletion: `, ## __VA_ARGS__` drops the comma
            # when the variadic argument is empty and pastes nothing
            # (tokens are placed verbatim) when it is not.
            if va_param is not None and token.is_punctuator(",") and \
                    nxt is not None and nxt.kind is TokenKind.HASHHASH \
                    and index + 2 < len(body) \
                    and body[index + 2].kind is TokenKind.IDENTIFIER \
                    and body[index + 2].text == va_param \
                    and va_param in raw:
                va_tokens = raw[va_param]
                if va_tokens:
                    fragments.append([token])
                    clones = []
                    for arg_token in va_tokens:
                        clone = arg_token.copy()
                        clone.version = head.version
                        clones.append(clone)
                    fragments.append(clones)
                index += 3
                continue
            if token.kind is TokenKind.HASH and nxt is not None and \
                    nxt.kind is TokenKind.IDENTIFIER and nxt.text in raw:
                self.stats.stringifications += 1
                if hoisted:
                    self.stats.hoisted_stringifications += 1
                fragments.append([_stringify(raw[nxt.text], head)])
                index += 2
                continue
            if token.kind is TokenKind.HASHHASH:
                fragments.append([token])
                index += 1
                continue
            if token.kind is TokenKind.IDENTIFIER and token.text in raw:
                prev_hash = (index > 0 and
                             body[index - 1].kind is TokenKind.HASHHASH)
                next_hash = (nxt is not None and
                             nxt.kind is TokenKind.HASHHASH)
                if prev_hash or next_hash:
                    clones = []
                    for arg_token in raw[token.text]:
                        clone = arg_token.copy()
                        clone.version = head.version
                        clones.append(clone)
                    fragments.append(clones)
                else:
                    if condition is not None:
                        expanded = self.expand(
                            [t.copy() for t in raw[token.text]], condition)
                    else:
                        expanded = [t.copy() for t in raw[token.text]]
                    fragments.append(expanded)
                index += 1
                continue
            fragments.append([token])
            index += 1
        # Resolve ## between neighbouring fragments.
        result: TokenTree = []
        i = 0
        while i < len(fragments):
            fragment = fragments[i]
            if (len(fragment) == 1 and isinstance(fragment[0], Token)
                    and fragment[0].kind is TokenKind.HASHHASH
                    and result and i + 1 < len(fragments)):
                self.stats.token_pastings += 1
                if hoisted:
                    self.stats.hoisted_pastings += 1
                right_fragment = list(fragments[i + 1])
                left = result.pop() if result else None
                right = right_fragment.pop(0) if right_fragment else None
                pasted = self._paste(left, right, head, hide)
                if pasted is not None:
                    result.append(pasted)
                result.extend(right_fragment)
                i += 2
                continue
            result.extend(fragment)
            i += 1
        return result

    def _paste(self, left, right, head: Token,
               hide: frozenset) -> Optional[Token]:
        """Concatenate two tokens into one (placemarker rules apply)."""
        if left is None or (isinstance(left, Token) and left.text == ""):
            return right if isinstance(right, Token) else right
        if right is None or (isinstance(right, Token) and right.text == ""):
            return left
        if not isinstance(left, Token) or not isinstance(right, Token):
            raise PreprocessorError(
                "token pasting across an unhoisted conditional", head)
        text = left.text + right.text
        lexed = [t for line in lex_logical_lines(text, head.file)
                 for t in line]
        if len(lexed) != 1:
            raise PreprocessorError(
                f"pasting {left.text!r} and {right.text!r} does not form "
                "a valid token", head)
        token = lexed[0]
        token.file, token.line, token.col = head.file, head.line, head.col
        token.no_expand = left.no_expand | right.no_expand | hide
        token.version = head.version
        token.layout = left.layout
        return token


def _stringify(tokens: List[Token], head: Token) -> Token:
    """The # operator: raw argument tokens to a string literal."""
    parts: List[str] = []
    for index, token in enumerate(tokens):
        if index > 0 and token.has_space_before:
            parts.append(" ")
        text = token.text
        if token.kind in (TokenKind.STRING, TokenKind.CHARACTER):
            text = text.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(text)
    literal = '"' + "".join(parts) + '"'
    return Token(TokenKind.STRING, literal, head.file, head.line,
                 head.col, head.layout, version=head.version)


def _scan_end(tokens: List[Token], start: int) -> Optional[int]:
    """Index just past the balanced ``( ... )`` starting at ``start``,
    or None if not an invocation / incomplete."""
    if start >= len(tokens) or not tokens[start].is_punctuator("("):
        return None
    depth = 0
    for index in range(start, len(tokens)):
        if tokens[index].is_punctuator("("):
            depth += 1
        elif tokens[index].is_punctuator(")"):
            depth -= 1
            if depth == 0:
                return index + 1
    return None


def _scan_tokens_invocation(tokens: List[Token], start: int) -> str:
    """Classify the invocation shape after a macro name.

    Returns "none" (no '(' follows), "done", or "incomplete".
    """
    if start >= len(tokens):
        return "incomplete"
    if not tokens[start].is_punctuator("("):
        return "none"
    return "done" if _scan_end(tokens, start) is not None else "incomplete"
