"""LALR(1) parser-table generation.

SuperC relies on Bison's LALR tables (§5); this module is the Bison
replacement.  It builds the LR(0) automaton and computes LALR(1)
lookahead sets with the DeRemer–Pennello relational algorithm
("Efficient computation of LALR(1) look-ahead sets", TOPLAS 1982),
which the paper cites as [13]:

* ``DR`` (directly reads), the ``reads`` and ``includes`` relations,
  and the SCC-based digraph closure give ``Follow`` sets for
  nonterminal transitions;
* ``lookback`` maps each (state, reducible production) to the
  nonterminal transitions whose Follow sets form its lookahead.

Conflicts are resolved Bison-style: precedence/associativity when
declared, otherwise shift wins a shift/reduce conflict and the earlier
production wins a reduce/reduce conflict; every resolution is recorded
in ``Tables.conflicts``.
"""

from __future__ import annotations

import functools
import pickle
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.parser.grammar import (AUGMENTED, END, Assoc, Build, Grammar,
                                  Production)

# On-disk table-blob format (``to_blob``/``from_blob``).  Bump whenever
# the pickled shape of Tables/Grammar/Production changes so stale cache
# files are regenerated instead of deserialized wrongly.
TABLE_BLOB_MAGIC = b"repro-lalr-tables"
TABLE_BLOB_VERSION = 1

# An LR(0) item is (production index, dot position).
Item = Tuple[int, int]

# Parse actions.  ('s', state) shift, ('r', prod) reduce, ('a',) accept.
SHIFT = "s"
REDUCE = "r"
ACCEPT = "a"
Action = Tuple

# One production's reduce plan: (left-hand side, arity, unit
# passthrough, production).  A *unit passthrough* is a one-symbol
# ``passthrough`` production such as C's ``AssignmentExpression ->
# ConditionalExpression``: it re-pushes its child's value unchanged.
ReducePlan = Tuple[str, int, bool, Production]

# A unit chain, keyed by (state below, first production, lookahead
# terminal): (final state, final left-hand side, steps).  Zero steps
# means the first reduction does not start a chain.
ChainKey = Tuple[int, int, str]
UnitChain = Tuple[Optional[int], Optional[str], int]


class Conflict:
    """A recorded table conflict and how it was resolved."""

    __slots__ = ("state", "terminal", "kind", "chosen", "rejected")

    def __init__(self, state: int, terminal: str, kind: str,
                 chosen: Action, rejected: Action):
        self.state = state
        self.terminal = terminal
        self.kind = kind  # "shift/reduce" or "reduce/reduce"
        self.chosen = chosen
        self.rejected = rejected

    def __repr__(self) -> str:
        return (f"Conflict({self.kind} in state {self.state} on "
                f"{self.terminal!r}: chose {self.chosen}, "
                f"rejected {self.rejected})")


class Tables:
    """Generated ACTION/GOTO tables plus the grammar they came from."""

    def __init__(self, grammar: Grammar,
                 action: List[Dict[str, Action]],
                 goto: List[Dict[str, int]],
                 conflicts: List[Conflict]):
        self.grammar = grammar
        self.action = action
        self.goto = goto
        self.conflicts = conflicts

    @property
    def num_states(self) -> int:
        return len(self.action)

    def expected_terminals(self, state: int) -> List[str]:
        """Terminals with any action in ``state`` (for error messages)."""
        return sorted(self.action[state])

    @functools.cached_property
    def reduce_plan(self) -> List[ReducePlan]:
        """Per production index, what both LR engines need to reduce by
        it.  Built on first use and kept on the tables, but never
        pickled: it is derived, so it stays out of table generation and
        out of the blob."""
        return [(production.lhs, len(production.rhs),
                 production.build is Build.PASSTHROUGH
                 and len(production.rhs) == 1, production)
                for production in self.grammar.productions]

    @functools.cached_property
    def _chain_memos(self) -> Dict[FrozenSet[str],
                                   Dict[ChainKey, UnitChain]]:
        return {}

    def unit_chains(self, observed: Optional[FrozenSet[str]]) \
            -> Optional[Dict[ChainKey, UnitChain]]:
        """FMLR's memo of :meth:`unit_chain` for contexts that observe
        the reductions of ``observed``, kept on the tables like
        ``reduce_plan`` and never pickled.  None for a context that
        observes every reduction: it never chains."""
        if observed is None:
            return None
        memos = self._chain_memos
        memo = memos.get(observed)
        if memo is None:
            memo = memos[observed] = {}
        return memo

    def unit_chain(self, observed: FrozenSet[str], below: int,
                   production: int, terminal: str) -> UnitChain:
        """The run of unit passthroughs that reducing by ``production``
        starts over a stack node in state ``below``, with lookahead
        ``terminal`` and a non-None child value.  Each step pops the
        node the last one pushed, so every step's goto is read in
        ``below``.  The run stops before a reduction that is not a unit
        passthrough, one whose left-hand side is in ``observed``, one
        with no goto, and before any other action."""
        plan, goto = self.reduce_plan, self.goto[below]
        lhs, _arity, unit, _production = plan[production]
        state = goto.get(lhs)
        if not unit or lhs in observed or state is None:
            return None, None, 0
        steps = 1
        while True:
            action = self.action[state].get(terminal)
            if action is None or action[0] != REDUCE:
                return state, lhs, steps
            next_lhs, _arity, unit, _production = plan[action[1]]
            next_state = goto.get(next_lhs)
            if not unit or next_lhs in observed or next_state is None:
                return state, lhs, steps
            state, lhs, steps = next_state, next_lhs, steps + 1

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state.pop("reduce_plan", None)
        state.pop("_chain_memos", None)
        return state


class TableBlobError(Exception):
    """A table blob is corrupt, foreign, or from another format version."""


def to_blob(tables: Tables) -> bytes:
    """Serialize generated tables to a versioned byte blob.

    The blob embeds a magic marker and ``TABLE_BLOB_VERSION`` so caches
    written by an incompatible build are rejected (and regenerated) by
    :func:`from_blob` instead of being loaded as garbage.  Production
    ACTION callables are pickled by reference, so the deserializing
    process must import the same grammar module — which it always does,
    since only our own grammars produce these tables.
    """
    return pickle.dumps({
        "magic": TABLE_BLOB_MAGIC,
        "version": TABLE_BLOB_VERSION,
        "tables": tables,
    }, protocol=pickle.HIGHEST_PROTOCOL)


def from_blob(blob: bytes) -> Tables:
    """Deserialize tables written by :func:`to_blob`.

    Raises :class:`TableBlobError` on anything that is not a blob of
    the current format version; callers treat that as a cache miss.
    """
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise TableBlobError(f"undecodable table blob: {exc!r}")
    if not isinstance(payload, dict) \
            or payload.get("magic") != TABLE_BLOB_MAGIC:
        raise TableBlobError("not a repro LALR table blob")
    version = payload.get("version")
    if version != TABLE_BLOB_VERSION:
        raise TableBlobError(
            f"table blob version {version!r} != {TABLE_BLOB_VERSION}")
    tables = payload.get("tables")
    if not isinstance(tables, Tables):
        raise TableBlobError("table blob payload is not a Tables")
    return tables


class _LR0:
    """The LR(0) automaton: item-set states and transitions."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.states: List[FrozenSet[Item]] = []       # kernel items only
        self.closures: List[List[Item]] = []
        self.transitions: List[Dict[str, int]] = []   # state -> sym -> state
        self._build()

    def _closure(self, kernel: FrozenSet[Item]) -> List[Item]:
        grammar = self.grammar
        items = list(kernel)
        seen: Set[Item] = set(kernel)
        added_lhs: Set[str] = set()
        queue = list(kernel)
        while queue:
            prod_idx, dot = queue.pop()
            rhs = grammar.productions[prod_idx].rhs
            if dot >= len(rhs):
                continue
            symbol = rhs[dot]
            if symbol in grammar.terminals or symbol in added_lhs:
                continue
            added_lhs.add(symbol)
            for production in grammar.by_lhs.get(symbol, ()):
                item = (production.index, 0)
                if item not in seen:
                    seen.add(item)
                    items.append(item)
                    queue.append(item)
        return items

    def _build(self) -> None:
        grammar = self.grammar
        initial: FrozenSet[Item] = frozenset({(0, 0)})
        index: Dict[FrozenSet[Item], int] = {initial: 0}
        self.states.append(initial)
        worklist = [0]
        while worklist:
            state = worklist.pop(0)
            closure = self._closure(self.states[state])
            if len(self.closures) <= state:
                self.closures.extend(
                    [None] * (state + 1 - len(self.closures)))
            self.closures[state] = closure
            moves: Dict[str, List[Item]] = {}
            for prod_idx, dot in closure:
                rhs = grammar.productions[prod_idx].rhs
                if dot < len(rhs):
                    moves.setdefault(rhs[dot], []).append(
                        (prod_idx, dot + 1))
            transitions: Dict[str, int] = {}
            for symbol, kernel_items in moves.items():
                kernel = frozenset(kernel_items)
                target = index.get(kernel)
                if target is None:
                    target = len(self.states)
                    index[kernel] = target
                    self.states.append(kernel)
                    worklist.append(target)
                transitions[symbol] = target
            if len(self.transitions) <= state:
                self.transitions.extend(
                    [None] * (state + 1 - len(self.transitions)))
            self.transitions[state] = transitions


def _nullable_set(grammar: Grammar) -> Set[str]:
    nullable: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for production in grammar.productions:
            if production.lhs in nullable:
                continue
            if all(symbol in nullable for symbol in production.rhs):
                nullable.add(production.lhs)
                changed = True
    return nullable


def _digraph(nodes: Sequence[Tuple[int, str]],
             relation: Dict[Tuple[int, str], List[Tuple[int, str]]],
             base: Dict[Tuple[int, str], Set[str]]) \
        -> Dict[Tuple[int, str], Set[str]]:
    """DeRemer–Pennello's Digraph: least sets F with
    F(x) = base(x) ∪ ⋃ { F(y) | x relation y }, SCCs handled by union."""
    result: Dict[Tuple[int, str], Set[str]] = {}
    n: Dict[Tuple[int, str], int] = {node: 0 for node in nodes}
    stack: List[Tuple[int, str]] = []
    INF = float("inf")

    def traverse(x: Tuple[int, str]) -> None:
        # Iterative Tarjan-style traversal to avoid recursion limits.
        call_stack = [(x, iter(relation.get(x, ())))]
        stack.append(x)
        n[x] = len(stack)
        result[x] = set(base.get(x, ()))
        while call_stack:
            node, it = call_stack[-1]
            advanced = False
            for succ in it:
                if n[succ] == 0:
                    stack.append(succ)
                    n[succ] = len(stack)
                    result[succ] = set(base.get(succ, ()))
                    call_stack.append((succ, iter(relation.get(succ, ()))))
                    advanced = True
                    break
                n[node] = min(n[node], n[succ])
                result[node] |= result[succ]
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                n[parent] = min(n[parent], n[node])
                result[parent] |= result[node]
            if n[node] == stack.index(node) + 1:
                # node is an SCC root: pop the component, sharing sets.
                while True:
                    top = stack.pop()
                    n[top] = INF
                    if top == node:
                        break
                    result[top] = result[node]

    for node in nodes:
        if n[node] == 0:
            traverse(node)
    return result


def generate(grammar: Grammar) -> Tables:
    """Generate LALR(1) tables for a finished grammar."""
    grammar.finish()
    automaton = _LR0(grammar)
    nullable = _nullable_set(grammar)
    productions = grammar.productions

    # Nonterminal transitions (p, A).
    nt_transitions: List[Tuple[int, str]] = []
    for state, transitions in enumerate(automaton.transitions):
        for symbol in transitions:
            if symbol in grammar.nonterminals:
                nt_transitions.append((state, symbol))
    nt_set = set(nt_transitions)

    # DR(p, A): terminals t with goto(p, A) -t->.
    dr: Dict[Tuple[int, str], Set[str]] = {}
    for p, a in nt_transitions:
        r = automaton.transitions[p][a]
        dr[(p, a)] = {symbol for symbol in automaton.transitions[r]
                      if symbol in grammar.terminals}
        # The augmented production ($accept -> start $end) makes END a
        # real terminal transition, so no special-casing is needed here.

    # reads: (p, A) reads (r, C) iff goto(p,A)=r, r -C-> and C nullable.
    reads: Dict[Tuple[int, str], List[Tuple[int, str]]] = {}
    for p, a in nt_transitions:
        r = automaton.transitions[p][a]
        targets = [(r, c) for c in automaton.transitions[r]
                   if c in nullable and (r, c) in nt_set]
        if targets:
            reads[(p, a)] = targets

    read_sets = _digraph(nt_transitions, reads, dr)

    # includes and lookback, computed by walking each production's RHS
    # from each state with a transition on its LHS.
    includes: Dict[Tuple[int, str], List[Tuple[int, str]]] = {}
    lookback: Dict[Tuple[int, int], List[Tuple[int, str]]] = {}
    for p, a in nt_transitions:
        for production in grammar.by_lhs[a]:
            state = p
            rhs = production.rhs
            for i, symbol in enumerate(rhs):
                if symbol in grammar.nonterminals:
                    rest_nullable = all(s in nullable for s in rhs[i + 1:])
                    if rest_nullable and (state, symbol) in nt_set:
                        includes.setdefault((state, symbol), []) \
                            .append((p, a))
                state = automaton.transitions[state][symbol]
            lookback.setdefault((state, production.index), []) \
                .append((p, a))

    follow_sets = _digraph(nt_transitions, includes, read_sets)

    # LA(q, production) = union of Follow over lookback.
    lookahead: Dict[Tuple[int, int], Set[str]] = {}
    for key, sources in lookback.items():
        la: Set[str] = set()
        for source in sources:
            la |= follow_sets.get(source, set())
        lookahead[key] = la

    # Assemble ACTION and GOTO with conflict resolution.
    conflicts: List[Conflict] = []
    action: List[Dict[str, Action]] = []
    goto: List[Dict[str, int]] = []
    for state in range(len(automaton.states)):
        row: Dict[str, Action] = {}
        goto_row: Dict[str, int] = {}
        for symbol, target in automaton.transitions[state].items():
            if symbol in grammar.terminals:
                row[symbol] = (SHIFT, target)
            else:
                goto_row[symbol] = target
        for prod_idx, dot in automaton.closures[state]:
            production = productions[prod_idx]
            if dot != len(production.rhs):
                if production.index == 0 and dot == 1:
                    # $accept -> start . $end : accept on END.
                    row[END] = (ACCEPT,)
                continue
            if production.index == 0:
                continue
            for terminal in lookahead.get((state, prod_idx), ()):
                new: Action = (REDUCE, prod_idx)
                existing = row.get(terminal)
                if existing is None:
                    row[terminal] = new
                    continue
                resolved = _resolve(grammar, state, terminal, existing,
                                    new, conflicts)
                if resolved is None:
                    row.pop(terminal, None)  # nonassoc: error entry
                else:
                    row[terminal] = resolved
        action.append(row)
        goto.append(goto_row)

    return Tables(grammar, action, goto, conflicts)


def _resolve(grammar: Grammar, state: int, terminal: str,
             existing: Action, new: Action,
             conflicts: List[Conflict]) -> Optional[Action]:
    """Bison-style conflict resolution; records what happened."""
    if existing[0] == SHIFT and new[0] == REDUCE:
        shift_action, reduce_action = existing, new
    elif existing[0] == REDUCE and new[0] == SHIFT:
        shift_action, reduce_action = new, existing
    elif existing[0] == REDUCE and new[0] == REDUCE:
        # reduce/reduce: earlier production wins.
        first = min(existing[1], new[1])
        chosen: Action = (REDUCE, first)
        rejected = existing if existing[1] != first else new
        conflicts.append(Conflict(state, terminal, "reduce/reduce",
                                  chosen, rejected))
        return chosen
    else:
        # ACCEPT vs something: keep accept.
        return existing if existing[0] == ACCEPT else new

    production = grammar.productions[reduce_action[1]]
    term_prec = grammar.prec_of(terminal)
    prod_prec = grammar.production_prec(production)
    if term_prec is not None and prod_prec is not None:
        if prod_prec[0] > term_prec[0]:
            return reduce_action
        if prod_prec[0] < term_prec[0]:
            return shift_action
        assoc = term_prec[1]
        if assoc is Assoc.LEFT:
            return reduce_action
        if assoc is Assoc.RIGHT:
            return shift_action
        return None  # NONASSOC: error
    chosen = shift_action
    conflicts.append(Conflict(state, terminal, "shift/reduce",
                              chosen, reduce_action))
    return chosen
