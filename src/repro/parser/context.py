"""Parser-context plug-in interface (§5.2).

SuperC recognizes context-sensitive languages (like C, whose names may
be typedef names or object names) without modifying the FMLR engine,
via a plug-in with four callbacks: ``reclassify`` adjusts the token
follow-set, ``fork_context`` duplicates state when subparsers fork, and
``may_merge``/``merge_contexts`` gate and perform merging.

The engines additionally call ``on_reduce`` so language plug-ins can
maintain their state (e.g. the C symbol table) from semantic actions.
A plug-in names the left-hand sides it observes in
``observed_reductions``; the engines call ``on_reduce`` for those
reductions only.  A subclass that overrides ``on_reduce`` without
declaring the set observes every reduction.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional, Tuple

from repro.lexer.tokens import Token


class ParserContext:
    """Default do-nothing context: context-free parsing."""

    # Left-hand sides whose reductions ``on_reduce`` observes; None
    # means every reduction.  Between observed reductions the context
    # does not change, so FMLR reuses a lookahead's classification.
    observed_reductions: Optional[FrozenSet[str]] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "on_reduce" in vars(cls) \
                and "observed_reductions" not in vars(cls):
            cls.observed_reductions = None

    def reclassify(self, token: Token, terminal: str,
                   condition: Any) -> List[Tuple[Any, str]]:
        """Map one (presence condition, base terminal) classification to
        one or more refined classifications.

        Returning more than one entry makes FMLR fork a subparser on an
        *implicit* conditional (e.g. an ambiguously defined name).
        The returned conditions must partition ``condition``.
        """
        return [(condition, terminal)]

    def fork_context(self) -> "ParserContext":
        """Duplicate this context for a newly forked subparser."""
        return self

    def may_merge(self, other: "ParserContext") -> bool:
        """Whether two subparsers' contexts allow merging."""
        return True

    def merge_contexts(self, other: "ParserContext",
                       self_condition: Any,
                       other_condition: Any) -> "ParserContext":
        """Combine two contexts into the merged subparser's context."""
        return self

    def on_reduce(self, production: Any, value: Any,
                  condition: Any) -> None:
        """Observe a completed reduction (for symbol-table updates)."""
