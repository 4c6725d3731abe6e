"""A plain table-driven LR parser engine.

This is the single-configuration baseline: it parses one fully
preprocessed token stream (no static conditionals) with the same tables,
the same reduce plan (``Tables.reduce_plan``: a unit passthrough
re-pushes its child's value, and ``on_reduce`` runs only for the
reductions the context observes) and the same AST machinery as FMLR.
Unlike FMLR it classifies the lookahead afresh before every action.
The gcc-like baseline (§6.3's performance floor) and the
per-configuration differential oracle both run on it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.lexer.tokens import Token, TokenKind
from repro.parser.ast import build_value
from repro.parser.context import ParserContext
from repro.parser.grammar import END
from repro.parser.lalr import ACCEPT, REDUCE, SHIFT, Tables


class ParseError(Exception):
    """Raised when the input is not in the language."""

    def __init__(self, message: str, token: Optional[Token] = None,
                 expected: Optional[List[str]] = None):
        where = ""
        if token is not None:
            where = f"{token.file}:{token.line}:{token.col}: "
        detail = ""
        if expected:
            shown = ", ".join(expected[:12])
            if len(expected) > 12:
                shown += ", ..."
            detail = f" (expected one of: {shown})"
        super().__init__(f"{where}{message}{detail}")
        self.token = token
        self.expected = expected or []


class LRParser:
    """Parses token sequences using generated LALR tables."""

    def __init__(self, tables: Tables,
                 classify: Callable[[Token], str],
                 context_factory: Callable[[], ParserContext] = ParserContext,
                 condition: Any = True):
        self.tables = tables
        self.classify = classify
        self.context_factory = context_factory
        # The "presence condition" handed to context callbacks; plain LR
        # parses a single configuration, so it is a constant.
        self.condition = condition

    def parse(self, tokens: Iterable[Token]) -> Any:
        """Parse and return the start symbol's semantic value."""
        tables = self.tables
        plan = tables.reduce_plan
        context = self.context_factory()
        observed = context.observed_reductions
        # Stack of (state, value); state 0 has no value.
        stack: List[Tuple[int, Any]] = [(0, None)]
        stream = iter(tokens)
        token, exhausted = self._next_token(stream)
        while True:
            state = stack[-1][0]
            # Classify the lookahead afresh on every action, even where
            # FMLR reuses a classification: a reduce may have just
            # registered a typedef name (the lexer hack must see
            # symbol-table updates from the current token's own
            # declaration), and the differential oracle runs on this
            # engine to cross-check FMLR's reuse.
            terminal = self._terminal(token, exhausted, context)
            action = tables.action[state].get(terminal)
            if action is None:
                raise ParseError(
                    f"unexpected {terminal!r}", token,
                    tables.expected_terminals(state))
            if action[0] == SHIFT:
                stack.append((action[1], token))
                token, exhausted = self._next_token(stream)
            elif action[0] == REDUCE:
                lhs, arity, unit, production = plan[action[1]]
                value = stack[-1][1]
                if unit and value is not None:
                    del stack[-1]
                else:
                    values = [entry[1] for entry in stack[-arity:]] \
                        if arity else []
                    if arity:
                        del stack[-arity:]
                    value = build_value(production, values, context)
                if observed is None or lhs in observed:
                    context.on_reduce(production, value, self.condition)
                goto_state = tables.goto[stack[-1][0]].get(lhs)
                if goto_state is None:
                    raise ParseError(
                        f"internal: no goto for {lhs!r}", token)
                stack.append((goto_state, value))
            else:  # ACCEPT
                return stack[-1][1]

    @staticmethod
    def _next_token(stream) -> Tuple[Optional[Token], bool]:
        try:
            return next(stream), False
        except StopIteration:
            return None, True

    def _terminal(self, token: Optional[Token], exhausted: bool,
                  context) -> str:
        if exhausted:
            return END
        if token.kind is TokenKind.EOF:
            return END
        base = self.classify(token)
        classifications = context.reclassify(token, base, self.condition)
        if len(classifications) != 1:
            raise ParseError(
                "ambiguous token classification in single-configuration "
                f"parse: {token.text!r}", token)
        return classifications[0][1]
