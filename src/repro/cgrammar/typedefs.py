"""The conditional symbol table: SuperC's C context plug-in (§5.2).

The context is a scoped symbol table tracking which names denote types
(typedef names) or objects under which presence conditions.  Its four
callbacks plug into the FMLR engine:

* ``reclassify`` turns IDENTIFIER heads into TYPEDEF_NAME where the
  symbol table says so; a name that is *ambiguously* defined under the
  current presence condition yields two classifications, which makes
  the engine fork a subparser on an implicit conditional;
* ``fork_context`` duplicates the scope chain copy-on-write;
* ``may_merge`` permits merging only at the same scope nesting level;
* ``merge_contexts`` unions scopes not already shared.

Declarations update the table from ``on_reduce``, which observes only
scope brackets and declarations (``observed_reductions``): a completed
``Declaration`` whose specifiers include ``typedef`` registers its
declarator names as typedef names under the reducing subparser's
presence condition (the specifiers or declarators may contain static
choice nodes, in which case registration is per-branch).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cgrammar.classify import IDENTIFIER, TYPEDEF_NAME
from repro.lexer.tokens import Token, TokenKind
from repro.parser.ast import Node, StaticChoice
from repro.parser.context import ParserContext

# A scope maps name -> [(condition, is_typedef)]; later entries shadow
# earlier ones for overlapping conditions.
Scope = Dict[str, List[Tuple[Any, bool]]]


class SymbolStats:
    """Shared across forked contexts (Table 3's typedef rows)."""

    def __init__(self) -> None:
        self.typedef_names = 0
        self.ambiguous_names = 0


class CContext(ParserContext):
    """Conditional, scoped symbol table for C."""

    def __init__(self, manager: Any,
                 stats: Optional[SymbolStats] = None,
                 _scopes: Optional[List[Scope]] = None,
                 _owned: Optional[List[bool]] = None):
        self.manager = manager
        self.stats = stats or SymbolStats()
        self.scopes: List[Scope] = _scopes if _scopes is not None \
            else [{}]
        self._owned: List[bool] = _owned if _owned is not None \
            else [True]

    # -- reclassify -------------------------------------------------------

    def reclassify(self, token: Token, terminal: str,
                   condition: Any) -> List[Tuple[Any, str]]:
        if terminal != IDENTIFIER:
            return [(condition, terminal)]
        name = token.text
        remaining = condition
        buckets: Dict[str, Any] = {}
        for scope in reversed(self.scopes):
            entries = scope.get(name)
            if not entries:
                continue
            # Later entries in a scope shadow earlier ones.
            for entry_cond, is_typedef in reversed(entries):
                claimed = remaining & entry_cond
                if claimed.is_false():
                    continue
                key = TYPEDEF_NAME if is_typedef else IDENTIFIER
                buckets[key] = (buckets[key] | claimed) \
                    if key in buckets else claimed
                remaining = remaining & ~entry_cond
                if remaining.is_false():
                    break
            if remaining.is_false():
                break
        if not remaining.is_false():
            buckets[IDENTIFIER] = (buckets[IDENTIFIER] | remaining) \
                if IDENTIFIER in buckets else remaining
        if len(buckets) > 1:
            self.stats.ambiguous_names += 1
        return [(cond, terminal_name)
                for terminal_name, cond in buckets.items()]

    # -- forking and merging ------------------------------------------------

    def fork_context(self) -> "CContext":
        self._owned[:] = [False] * len(self._owned)
        return type(self)(self.manager, self.stats, list(self.scopes),
                          [False] * len(self.scopes))

    def may_merge(self, other: "ParserContext") -> bool:
        return (isinstance(other, CContext)
                and len(self.scopes) == len(other.scopes))

    def merge_contexts(self, other: "CContext", self_condition: Any,
                       other_condition: Any) -> "CContext":
        merged_scopes: List[Scope] = []
        for mine, theirs in zip(self.scopes, other.scopes):
            if mine is theirs:
                merged_scopes.append(mine)
                continue
            combined: Scope = {key: list(value)
                               for key, value in mine.items()}
            for name, entries in theirs.items():
                existing = combined.setdefault(name, [])
                for entry in entries:
                    if entry not in existing:
                        existing.append(entry)
            merged_scopes.append(combined)
        return type(self)(self.manager, self.stats, merged_scopes,
                          [False] * len(merged_scopes))

    # -- reductions ------------------------------------------------------------

    observed_reductions = frozenset(("ScopePush", "ScopePop",
                                     "Declaration"))

    def on_reduce(self, production: Any, value: Any,
                  condition: Any) -> None:
        lhs = production.lhs
        if lhs == "ScopePush":
            self.scopes.append({})
            self._owned.append(True)
        elif lhs == "ScopePop":
            self.scopes.pop()
            self._owned.pop()
        elif lhs == "Declaration" and isinstance(value, Node):
            self._register_declaration(value, condition)

    def _register_declaration(self, node: Node, condition: Any) -> None:
        children = node.children
        if len(children) < 2:
            return  # `specifiers ;` declares no names
        specifiers, declarators = children[0], children[1]
        typedef_cond = self._typedef_condition(specifiers, condition)
        for name_cond, name in self._declarator_names(declarators,
                                                      condition):
            as_typedef = name_cond & typedef_cond
            as_object = name_cond & ~typedef_cond
            if not as_typedef.is_false():
                self._register(name, as_typedef, True)
                self.stats.typedef_names += 1
            if not as_object.is_false():
                self._register(name, as_object, False)

    def _typedef_condition(self, value: Any, condition: Any) -> Any:
        """Sub-condition of ``condition`` under which the declaration
        specifiers include the ``typedef`` storage class."""
        if isinstance(value, Token):
            return condition if value.text == "typedef" \
                else self.manager.false
        if isinstance(value, StaticChoice):
            result = self.manager.false
            for branch_cond, branch in value.branches:
                result = result | self._typedef_condition(
                    branch, condition & branch_cond)
            return result
        if isinstance(value, tuple):
            result = self.manager.false
            for element in value:
                result = result | self._typedef_condition(element,
                                                          condition)
            return result
        if isinstance(value, Node):
            result = self.manager.false
            for child in value.children:
                result = result | self._typedef_condition(child,
                                                          condition)
            return result
        return self.manager.false

    def _declarator_names(self, value: Any, condition: Any) \
            -> List[Tuple[Any, str]]:
        """Names declared by an init-declarator list (or fragment)."""
        names: List[Tuple[Any, str]] = []
        if isinstance(value, Token):
            if value.kind is TokenKind.IDENTIFIER:
                names.append((condition, value.text))
            return names
        if isinstance(value, tuple):
            for element in value:
                names.extend(self._declarator_names(element, condition))
            return names
        if isinstance(value, StaticChoice):
            for branch_cond, branch in value.branches:
                names.extend(self._declarator_names(
                    branch, condition & branch_cond))
            return names
        if isinstance(value, Node):
            target = _declarator_child(value)
            if target is not None:
                names.extend(self._declarator_names(target, condition))
            return names
        return names

    def _register(self, name: str, condition: Any,
                  is_typedef: bool) -> None:
        if not self._owned[-1]:
            self.scopes[-1] = {key: list(entries) for key, entries
                               in self.scopes[-1].items()}
            self._owned[-1] = True
        self.scopes[-1].setdefault(name, []).append(
            (condition, is_typedef))

    # -- queries (for analyses and tests) ------------------------------------

    def is_typedef(self, name: str, condition: Any) -> bool:
        """Is the name a typedef everywhere under ``condition``?"""
        pairs = self.reclassify(
            Token(TokenKind.IDENTIFIER, name), IDENTIFIER, condition)
        return all(t == TYPEDEF_NAME for _c, t in pairs)


def _declarator_child(node: Node) -> Any:
    """The sub-declarator holding the declared name, per node kind."""
    name = node.name
    children = node.children
    if not children:
        return None
    if name == "PointerDeclarator":
        return children[-1]
    if name in ("ArrayDeclarator", "FunctionDeclarator",
                "InitializedDeclarator", "AsmDeclarator", "BitField"):
        return children[0]
    if name == "AttributedDeclarator":
        return children[-1]
    return None


def make_context_factory(manager: Any,
                         stats: Optional[SymbolStats] = None):
    """A fresh-context factory bound to one BDD manager (engines call
    it once per parse)."""
    shared_stats = stats or SymbolStats()

    def factory() -> CContext:
        return CContext(manager, shared_stats)

    return factory
