"""Fork-Merge LR parsing (Algorithm 2) with the paper's optimizations.

The engine maintains a priority queue of subparsers ordered by head
position.  Each subparser recognizes a distinct configuration: the
presence conditions of live subparsers are mutually exclusive and
together cover the feasible configuration space.

Optimizations (§4.2–4.4), all individually switchable for Figure 8:

* **token follow-set** — fork one subparser per *first language token*
  reachable through conditionals, not per conditional branch;
* **early reduces** — priority tie-breaker favouring subparsers that
  will reduce, so subparsers do not outrun each other;
* **lazy shifts** — heads that all shift stay in one multi-headed
  subparser; only the earliest head's shift is forked off;
* **shared reduces** — heads that reduce by the same production share
  one reduction of the common stack.

Disabling the follow-set gives MAPR's naive per-branch forking; with
``mapr_largest_first`` the queue uses MAPR's largest-stack-first
tie-breaker.  A kill switch bounds the live subparser count (the paper
uses 16,000 for the MAPR comparison).

**Front-runner mode.**  Between a fork and its merge one subparser is
usually strictly ahead of the rest, and between conditionals it is the
only one: Algorithm 2 is then plain LR.  After a pop, ``parse`` drops
dead entries off the heap top and takes that entry's earliest head
position as the *limit* (infinity for an empty queue).  The queue does
not change until something is inserted, so the limit holds for the
whole stretch.  A lone successor strictly below the limit is stepped
without an insert, for two reasons: it has no merge partner, since a
partner holds the same head nodes and so sits at the same position;
and the next pop would return it anyway, since every priority mode
orders by position first.  The tie rule: a successor *at* the limit,
even a reduce that did not move its head, goes through ``insert``.  The
queue's tie-breakers may step the tied subparser first, and a merge
that becomes possible only after that step must not be missed.
:meth:`FMLRParser._run_lead` runs the stretch.  It keeps a
single-headed subparser's condition, head, stack and context in locals
and builds a :class:`Subparser` only when the stretch ends; every
iteration still does the bookkeeping (counters, kill switch, BDD budget,
trace histogram).  Multi-headed subparsers, MAPR branch points and
ambiguous classifications go through ``_step`` and Figure 7b's action
groups; both paths share one stack reduction, so results and counters
do not depend on the mode.

**Carried presence conditions.**  A subparser's presence condition is
the disjunction of its heads' conditions.  Merging, shared reduces and
the budgets need it, so each subparser carries it in ``cond``, set where
the successor is made and the condition is already at hand: a
reduction's condition, a shifted head's condition, a MAPR fork's joint
condition, ``left | right`` for a merge.  Two invariants make this
exact.  First, ``follow_set(c, e)`` partitions ``c``: ``build_stream``
completes every branch point with its remainder alternative, so the
new heads of a shift under ``c`` disjoin to ``c``.  Second, the heads
of one subparser are mutually exclusive, so when a lazy shift takes
one head out of a subparser whose heads are unchanged, the heads left
behind hold under ``whole & ~shifted``.  Where no condition is at
hand, :meth:`Subparser.condition` disjoins the heads once and keeps
the result.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (Diagnostic, PHASE_PARSE, PHASE_RESOURCE,
                          ResourceBudget, SEVERITY_CONFIG)
from repro.lexer.tokens import Token, TokenKind
from repro.obs.tracer import NULL_TRACER
from repro.parser.ast import build_value, make_choice
from repro.parser.context import ParserContext
from repro.parser.grammar import END
from repro.parser.lalr import ACCEPT, REDUCE, SHIFT, Tables
from repro.parser.stream import (BranchNode, StreamElement, TokenNode,
                                 build_stream)


# A classified head: (condition, token node, terminal, LALR action).
_Classified = Tuple[Any, TokenNode, str, Tuple]

# The front-runner limit while no other subparser is queued.
_NO_LIMIT = float("inf")


class SubparserExplosion(Exception):
    """The live subparser count exceeded the kill switch."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"subparser count {count} exceeded kill switch {limit}")
        self.count = count
        self.limit = limit


class FMLROptions:
    """Optimization switches and limits."""

    def __init__(self, follow_set: bool = True, lazy_shifts: bool = True,
                 shared_reduces: bool = True, early_reduces: bool = True,
                 mapr_largest_first: bool = False,
                 choice_merging: bool = True,
                 kill_switch: int = 16000,
                 hard_kill_switch: bool = False):
        self.follow_set = follow_set
        self.lazy_shifts = lazy_shifts
        self.shared_reduces = shared_reduces
        self.early_reduces = early_reduces
        self.mapr_largest_first = mapr_largest_first
        # SuperC merges differing semantic values under complete
        # nonterminals into static choice nodes (§5.1).  MAPR's program
        # representation predates that facility: it only merges
        # *identical* parses, which is what makes its naive forking
        # exponential on Figure 6 (2^18 distinct initializer lists).
        self.choice_merging = choice_merging
        self.kill_switch = kill_switch
        # The paper's kill switch aborts the parse (SubparserExplosion).
        # By default it is now a *budget*: on trip, the lowest-priority
        # forks are dropped, their conditions are tagged invalid on the
        # result, and parsing continues (graceful degradation).  Set
        # hard_kill_switch=True for the legacy abort (benchmarks).
        self.hard_kill_switch = hard_kill_switch

    def label(self) -> str:
        if not self.follow_set:
            return ("MAPR & Largest First" if self.mapr_largest_first
                    else "MAPR")
        parts = []
        if self.shared_reduces:
            parts.append("Shared")
        if self.lazy_shifts:
            parts.append("Lazy")
        if self.early_reduces:
            parts.append("Early")
        return " & ".join(parts) if parts else "Follow-Set Only"


# The paper's Figure 8 optimization levels, top to bottom.
OPTIMIZATION_LEVELS: Dict[str, FMLROptions] = {
    "Shared, Lazy, & Early": FMLROptions(),
    "Shared & Lazy": FMLROptions(early_reduces=False),
    "Shared": FMLROptions(lazy_shifts=False, early_reduces=False),
    "Lazy": FMLROptions(shared_reduces=False, early_reduces=False),
    "Follow-Set Only": FMLROptions(lazy_shifts=False,
                                   shared_reduces=False,
                                   early_reduces=False),
    "MAPR & Largest First": FMLROptions(follow_set=False,
                                        lazy_shifts=False,
                                        shared_reduces=False,
                                        early_reduces=False,
                                        choice_merging=False,
                                        mapr_largest_first=True),
    "MAPR": FMLROptions(follow_set=False, lazy_shifts=False,
                        shared_reduces=False, early_reduces=False,
                        choice_merging=False),
}


class FMLRStats:
    """Per-parse instrumentation (Figure 8's subparser counts)."""

    def __init__(self) -> None:
        self.iterations = 0
        self.max_subparsers = 0
        self.subparser_counts: List[int] = []
        self.forks = 0
        self.merges = 0
        self.shared_reduce_count = 0
        self.lazy_shift_count = 0
        # LALR action-table probes on the step path (repro.obs).
        self.action_lookups = 0
        # Degradation counters (soft kill switch / resource budgets).
        self.kill_switch_trips = 0
        self.dropped_subparsers = 0

    def as_counters(self) -> Dict[str, int]:
        """Flat ``fmlr.*`` counter view for per-unit profiles."""
        return {
            "fmlr.iterations": self.iterations,
            "fmlr.max_subparsers": self.max_subparsers,
            "fmlr.forks": self.forks,
            "fmlr.merges": self.merges,
            "fmlr.shared_reduces": self.shared_reduce_count,
            "fmlr.lazy_shifts": self.lazy_shift_count,
            "fmlr.action_lookups": self.action_lookups,
            "fmlr.kill_switch_trips": self.kill_switch_trips,
            "fmlr.dropped_subparsers": self.dropped_subparsers,
        }


class _StackNode:
    """Immutable LR stack cell; forked subparsers share tails."""

    __slots__ = ("state", "symbol", "value", "prev", "depth")

    def __init__(self, state: int, symbol: Optional[str], value: Any,
                 prev: Optional["_StackNode"]):
        self.state = state
        self.symbol = symbol
        self.value = value
        self.prev = prev
        self.depth = 1 if prev is None else prev.depth + 1


class Subparser:
    """(presence conditions, heads, LR stack, context).

    ``heads`` is an ordered tuple of (condition, TokenNode) pairs — one
    pair for single-headed subparsers, several for multi-headed ones
    (lazy shifts / shared reduces).  In MAPR mode a head may be a
    BranchNode.  ``cond`` is the disjunction of the heads' conditions,
    or None until :meth:`condition` first needs it.
    """

    __slots__ = ("heads", "stack", "context", "alive", "cond")

    def __init__(self, heads: Tuple[Tuple[Any, StreamElement], ...],
                 stack: _StackNode, context: ParserContext,
                 cond: Any = None):
        self.heads = heads
        self.stack = stack
        self.context = context
        # Cleared when the subparser is merged away or stepped (lazy
        # deletion from the priority queue).
        self.alive = True
        self.cond = cond

    @property
    def earliest_position(self) -> int:
        return self.heads[0][1].position

    def condition(self, manager: Any) -> Any:
        cond = self.cond
        if cond is None:
            cond = self.cond = manager.disjoin(c for c, _ in self.heads)
        return cond

    def __repr__(self) -> str:
        return (f"Subparser(heads={[n.position for _, n in self.heads]}, "
                f"state={self.stack.state})")


class ParseFailure:
    """One configuration-specific parse error."""

    def __init__(self, condition: Any, token: Optional[Token],
                 expected: List[str]):
        self.condition = condition
        self.token = token
        self.expected = expected

    def __str__(self) -> str:
        where = ""
        if self.token is not None:
            where = (f"{self.token.file}:{self.token.line}:"
                     f"{self.token.col}: ")
        shown = ", ".join(self.expected[:8])
        text = self.token.text if self.token else "<eof>"
        return (f"{where}unexpected {text!r} under condition "
                f"{self.condition.to_expr_string()} "
                f"(expected one of: {shown})")


class FMLRResult:
    """Outcome of a configuration-preserving parse.

    A *partial* result is still a result: ``failures`` covers
    configurations that were parsed and rejected, ``diagnostics``
    covers configurations that were degraded away (soft kill switch,
    resource budgets), and ``invalid_configs`` disjoins both so callers
    can see exactly which configurations have no usable AST.
    """

    def __init__(self, accepted: List[Tuple[Any, Any]],
                 failures: List[ParseFailure], stats: FMLRStats,
                 manager: Any,
                 diagnostics: Optional[List[Diagnostic]] = None,
                 degraded: bool = False):
        self.accepted = accepted
        self.failures = failures
        self.stats = stats
        self.manager = manager
        self.diagnostics: List[Diagnostic] = diagnostics or []
        self.degraded = degraded

    @property
    def ok(self) -> bool:
        return bool(self.accepted) and not self.failures \
            and not self.degraded

    @property
    def invalid_configs(self) -> Any:
        """BDD over configurations with no usable parse (rejected or
        degraded away)."""
        condition = self.manager.false
        for failure in self.failures:
            condition = condition | failure.condition
        for diagnostic in self.diagnostics:
            condition = condition | diagnostic.condition
        return condition

    @property
    def value(self) -> Any:
        """The AST covering all accepted configurations (a static
        choice node when configurations yielded different trees)."""
        if not self.accepted:
            return None
        return make_choice(self.accepted)


class FMLRParser:
    """The table-driven Fork-Merge LR engine."""

    def __init__(self, tables: Tables,
                 classify: Callable[[Token], str],
                 context_factory: Callable[[], ParserContext]
                 = ParserContext,
                 options: Optional[FMLROptions] = None,
                 budget: Optional[ResourceBudget] = None,
                 tracer: Any = None):
        self.tables = tables
        self.classify = classify
        self.context_factory = context_factory
        self.options = options or FMLROptions()
        self.budget = budget
        # Observability hooks (repro.obs).  The default NULL_TRACER is
        # a stateless no-op singleton; the hot loop hoists its
        # ``enabled`` flag into a local so the un-traced path pays one
        # boolean test per hook site and allocates nothing.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- entry point ------------------------------------------------------

    def parse(self, tree: Sequence, manager: Any,
              condition: Any = None) -> FMLRResult:
        """Parse a preprocessor token tree under ``condition``."""
        options = self.options
        tracer = self.tracer
        trace = tracer.enabled
        root_cond = condition if condition is not None else manager.true
        first = build_stream(list(tree), manager)
        stats = FMLRStats()
        failures: List[ParseFailure] = []
        accepted: List[Tuple[Any, Any]] = []
        diagnostics: List[Diagnostic] = []
        budget = self.budget
        counter = itertools.count()
        initial_stack = _StackNode(0, None, None, None)
        context = self.context_factory()
        heads = self._advance(root_cond, first, manager)
        if not heads:
            return FMLRResult([], failures, stats, manager)

        def shed_forks(live: int) -> None:
            """Soft kill switch: keep the highest-priority forks, tag
            the dropped forks' configurations invalid, keep parsing.
            Live subparser conditions are mutually exclusive, so
            dropping a fork abandons exactly its configurations."""
            keep = max(1, options.kill_switch // 2)
            alive = [entry[2] for entry in queue if entry[2].alive]
            alive.sort(key=self._priority)
            victims = alive[max(0, keep - 1):]  # the stepped one stays
            if not victims:
                return
            dropped_cond = manager.disjoin(
                victim.condition(manager) for victim in victims)
            for victim in victims:
                victim.alive = False
            live_count[0] -= len(victims)
            stats.kill_switch_trips += 1
            stats.dropped_subparsers += len(victims)
            if trace:
                tracer.count("fmlr.kill_switch_trips")
                tracer.event("kill-switch", live=live,
                             dropped=len(victims))
            diagnostics.append(Diagnostic(
                dropped_cond, SEVERITY_CONFIG, PHASE_PARSE,
                f"subparser budget {options.kill_switch} exceeded "
                f"({live} live): dropped {len(victims)} lowest-priority "
                f"forks"))

        def trip_bdd_budget(current: Subparser) -> None:
            """Resource budget: abandon all remaining work, tagging the
            still-unparsed configurations invalid."""
            remaining = current.condition(manager)
            for entry in queue:
                if entry[2].alive:
                    remaining = remaining | entry[2].condition(manager)
                    entry[2].alive = False
            queue.clear()
            if trace:
                tracer.event("bdd-budget-trip",
                             nodes=manager.num_nodes())
            diagnostics.append(Diagnostic(
                remaining, SEVERITY_CONFIG, PHASE_RESOURCE,
                f"BDD budget of {budget.max_bdd_nodes} nodes exceeded "
                f"({manager.num_nodes()} allocated): parse abandoned "
                f"for the remaining configurations"))
        # The queue uses lazy deletion: subparsers merged away are
        # flagged dead and skipped on pop.  Merging happens on insert,
        # against live subparsers with the same heads and stack shape
        # (only newly inserted subparsers can create merge pairs).
        queue: List[Tuple[Tuple, int, Subparser]] = []
        index: Dict[Tuple, List[Subparser]] = {}
        live_count = [0]

        def merge_key(subparser: Subparser) -> Tuple:
            return (tuple(id(node) for _c, node in subparser.heads),
                    subparser.stack.depth, subparser.stack.state)

        def insert(subparser: Subparser) -> None:
            key = merge_key(subparser)
            bucket = index.setdefault(key, [])
            bucket[:] = [entry for entry in bucket if entry.alive]
            # Bound the candidate scan: when merging is mostly
            # impossible (MAPR mode, no choice nodes), a full scan of a
            # multi-thousand bucket with deep value comparisons would
            # dominate runtime.  Missing a merge is safe, just slower.
            start = max(0, len(bucket) - 32)
            for i in range(start, len(bucket)):
                existing = bucket[i]
                combined = self._try_merge(existing, subparser, manager)
                if combined is not None:
                    stats.merges += 1
                    if trace:
                        tracer.count("fmlr.merges")
                        tracer.event(
                            "merge",
                            position=combined.earliest_position)
                    existing.alive = False
                    bucket[i] = combined
                    heapq.heappush(queue, (self._priority(combined),
                                           next(counter), combined))
                    return
            bucket.append(subparser)
            heapq.heappush(queue, (self._priority(subparser),
                                   next(counter), subparser))
            live_count[0] += 1

        if options.follow_set or all(isinstance(n, TokenNode)
                                     for _, n in heads):
            insert(Subparser(tuple(heads), initial_stack, context,
                             root_cond))
        else:
            for cond, node in heads:
                insert(Subparser(((cond, node),), initial_stack,
                                 context, cond))
        while queue:
            _, _, subparser = heapq.heappop(queue)
            if not subparser.alive:
                continue
            subparser.alive = False  # popped: no longer mergeable
            live_count[0] -= 1
            # Front-runner mode: until something is inserted the queue
            # is fixed, so every successor strictly ahead of its
            # earliest live entry is stepped without an insert.
            while queue and not queue[0][2].alive:
                heapq.heappop(queue)
            limit = queue[0][2].earliest_position if queue else _NO_LIMIT
            for successor in self._run_lead(
                    subparser, limit, manager, stats, accepted, failures,
                    live_count, shed_forks, trip_bdd_budget):
                insert(successor)
        return FMLRResult(accepted, failures, stats, manager,
                          diagnostics, degraded=bool(diagnostics))

    def _run_lead(self, subparser: Subparser, limit: float, manager: Any,
                  stats: FMLRStats, accepted: List[Tuple[Any, Any]],
                  failures: List[ParseFailure], live_count: List[int],
                  shed_forks: Callable[[int], None],
                  trip_bdd_budget: Callable[[Subparser], None]) \
            -> List[Subparser]:
        """Step ``subparser``, then its lone successor while that stays
        strictly ahead of ``limit``; return the successors to insert.

        A single-headed subparser whose head is a token node is stepped
        as plain LR with its condition, head, stack and context in
        locals; a :class:`Subparser` is built only when the stretch ends
        or hands a step to :meth:`_step` or the Figure 7b partition.
        ``subparser`` is the stepped subparser, or None while the
        locals are ahead of it.
        """
        options = self.options
        tracer = self.tracer
        trace = tracer.enabled
        kill_switch = options.kill_switch
        max_nodes = self.budget.max_bdd_nodes if self.budget else 0
        action_table = self.tables.action
        record_count = stats.subparser_counts.append
        lead = False
        while True:
            if not lead:
                heads = subparser.heads
                if len(heads) == 1 and isinstance(heads[0][1], TokenNode):
                    lead = True
                    cond, node = heads[0]
                    stack, context = subparser.stack, subparser.context
            stats.iterations += 1
            live = live_count[0] + 1  # include the one being stepped
            record_count(live)
            if trace:
                tracer.record("fmlr.subparsers", live)
            if live > stats.max_subparsers:
                stats.max_subparsers = live
            if live > kill_switch:
                if options.hard_kill_switch:
                    raise SubparserExplosion(live, kill_switch)
                shed_forks(live)
            if max_nodes and stats.iterations % 64 == 0 \
                    and manager.num_nodes() > max_nodes:
                trip_bdd_budget(  # empties the queue
                    subparser if subparser is not None else
                    Subparser(((cond, node),), stack, context, cond))
                return []
            if not lead:
                successors = self._step(subparser, manager, accepted,
                                        failures, stats)
            else:
                terminal = node.terminal
                if terminal is None:
                    terminal = self._base_terminal(node)
                classes = context.reclassify(node.token, terminal, cond)
                if len(classes) == 1:
                    # One classification: a plain LR action, in locals.
                    sub_cond, terminal = classes[0]
                    if sub_cond.is_false():
                        return []
                    stats.action_lookups += 1
                    action = action_table[stack.state].get(terminal)
                    if action is None:
                        self._reject(sub_cond, node, stack.state, failures)
                        return []
                    if action[0] == SHIFT:
                        stack = _StackNode(action[1], terminal, node.token,
                                           stack)
                        succ = node.succ
                        if not isinstance(succ, TokenNode):
                            # A conditional: several heads, a MAPR branch
                            # point, or no feasible token at all.
                            heads = self._advance(sub_cond, succ, manager)
                            if not heads:
                                return []
                            if len(heads) > 1 or not isinstance(
                                    heads[0][1], TokenNode):
                                subparser = Subparser(tuple(heads), stack,
                                                      context, sub_cond)
                                if subparser.earliest_position >= limit:
                                    return [subparser]
                                lead = False
                                continue
                            succ = heads[0][1]
                        node = succ
                    elif action[0] == REDUCE:
                        stack = self._reduce_stack(stack, action[1],
                                                   sub_cond, context)
                        if stack is None:
                            return []
                    else:  # ACCEPT
                        accepted.append((sub_cond, stack.value))
                        return []
                    cond = sub_cond
                    subparser = None
                    if node.position < limit:
                        continue
                    return [Subparser(((cond, node),), stack, context,
                                      cond)]
                # An implicit conditional (an ambiguous name): Figure 7b.
                if subparser is None:
                    subparser = Subparser(((cond, node),), stack, context,
                                          cond)
                successors = self._partition(subparser, [(node, classes)],
                                             manager, accepted, failures,
                                             stats)
            if len(successors) == 1:
                subparser = successors[0]
                if subparser.earliest_position < limit:
                    lead = False
                    continue
            elif successors:
                forked = len(successors) - 1
                stats.forks += forked
                if trace:
                    tracer.count("fmlr.forks", forked)
                    tracer.event("fork", n=forked,
                                 position=subparser.earliest_position,
                                 live=live + forked)
            return successors

    # -- scheduling -------------------------------------------------------

    def _priority(self, subparser: Subparser) -> Tuple:
        position = subparser.earliest_position
        if self.options.mapr_largest_first:
            return (position, -subparser.stack.depth)
        if not self.options.early_reduces:
            return (position, 0)
        # Early reduces: subparsers that will reduce step first.
        cond, node = subparser.heads[0]
        rank = 1
        if isinstance(node, TokenNode):
            terminal = self._base_terminal(node)
            action = self.tables.action[subparser.stack.state] \
                .get(terminal)
            if action is not None and action[0] == REDUCE:
                rank = 0
        return (position, rank)

    def _base_terminal(self, node: TokenNode) -> str:
        terminal = node.terminal
        if terminal is None:
            terminal = node.terminal = END if node.is_eof \
                else self.classify(node.token)
        return terminal

    # -- stepping ---------------------------------------------------------

    def _advance(self, condition: Any, element: StreamElement,
                 manager: Any) -> List[Tuple[Any, StreamElement]]:
        """New heads after moving to ``element`` under ``condition``."""
        if condition.is_false():
            return []
        if self.options.follow_set:
            return follow_set(condition, element, manager)
        return [(condition, element)]

    def _step(self, subparser: Subparser, manager: Any,
              accepted: List[Tuple[Any, Any]],
              failures: List[ParseFailure],
              stats: FMLRStats) -> List[Subparser]:
        """Step a subparser :meth:`_run_lead` does not run in locals: a
        multi-headed one, or a MAPR branch point."""
        heads = subparser.heads
        # MAPR mode: a head may be a branch point -> naive forking.
        if not self.options.follow_set and isinstance(heads[0][1],
                                                      BranchNode):
            cond, node = heads[0]
            forks = []
            for branch_cond, sub_element in node.alternatives:
                joint = cond & branch_cond
                if joint.is_false():
                    continue
                forks.append(Subparser(
                    ((joint, sub_element),), subparser.stack,
                    subparser.context.fork_context(), joint))
            return forks
        reclassify = subparser.context.reclassify
        by_head = [(node, reclassify(node.token, self._base_terminal(node),
                                     cond))
                   for cond, node in heads]
        return self._partition(subparser, by_head, manager, accepted,
                               failures, stats)

    def _partition(self, subparser: Subparser,
                   by_head: List[Tuple[TokenNode, List[Tuple[Any, str]]]],
                   manager: Any, accepted: List[Tuple[Any, Any]],
                   failures: List[ParseFailure],
                   stats: FMLRStats) -> List[Subparser]:
        """Step ``subparser`` given each head's classifications: split
        on ambiguous classifications (implicit conditionals, e.g.
        conditionally-defined typedef names), drop rejecting heads, and
        partition the rest into Figure 7b's action groups."""
        options = self.options
        heads = subparser.heads
        state = subparser.stack.state
        classified: List[_Classified] = []
        for node, classes in by_head:
            for sub_cond, terminal in classes:
                if sub_cond.is_false():
                    continue
                stats.action_lookups += 1
                action = self.tables.action[state].get(terminal)
                if action is None:
                    self._reject(sub_cond, node, state, failures)
                    continue
                classified.append((sub_cond, node, terminal, action))
        if not classified:
            return []

        # Partition into action groups (Figure 7b).
        shift_heads: List[_Classified] = []
        reduce_groups: Dict[int, List[_Classified]] = {}
        for head in classified:
            kind = head[3][0]
            if kind == SHIFT:
                shift_heads.append(head)
            elif kind == REDUCE:
                reduce_groups.setdefault(head[3][1], []).append(head)
            else:  # ACCEPT
                accepted.append((head[0], subparser.stack.value))

        groups: List[Tuple[str, Any, List]] = []
        for production_index, group in sorted(reduce_groups.items()):
            if options.shared_reduces:
                groups.append(("reduce", production_index, group))
            else:
                for head in group:
                    groups.append(("reduce", production_index, [head]))
        if shift_heads:
            if options.lazy_shifts:
                groups.append(("shift", None, shift_heads))
            else:
                for head in shift_heads:
                    groups.append(("shift", None, [head]))
        if not groups:
            return []

        # Perform one LR action on the group holding the earliest head;
        # the rest are rescheduled as forked subparsers.
        groups.sort(key=lambda group: group[2][0][1].position)
        first_kind, first_extra, first_heads = groups[0]
        out: List[Subparser] = []
        share_context = len(groups) == 1
        context = subparser.context if share_context \
            else subparser.context.fork_context()
        # Whether the first group is every head with its condition
        # unchanged, so that it holds under the subparser's condition.
        all_heads = len(first_heads) == len(heads) and all(
            head[0] is cond for head, (cond, _n) in zip(first_heads, heads))
        if first_kind == "reduce":
            if len(first_heads) > 1:
                stats.shared_reduce_count += 1
            out.extend(self._reduce(
                subparser, first_extra,
                subparser.condition(manager) if all_heads
                else manager.disjoin(head[0] for head in first_heads),
                tuple(head[:2] for head in first_heads), context))
        else:
            out.extend(self._shift(subparser, first_heads, context,
                                   manager, stats,
                                   subparser.cond if all_heads else None))
        for kind, extra, group in groups[1:]:
            forked = Subparser(tuple(head[:2] for head in group),
                               subparser.stack,
                               subparser.context.fork_context())
            out.append(forked)
        return out

    def _reject(self, condition: Any, node: TokenNode, state: int,
                failures: List[ParseFailure]) -> None:
        failures.append(ParseFailure(
            condition, node.token if not node.is_eof else None,
            self.tables.expected_terminals(state)))

    def _reduce_stack(self, stack: _StackNode, production_index: int,
                      condition: Any, context: ParserContext) \
            -> Optional[_StackNode]:
        """Reduce ``stack`` by one production under ``condition``; None
        when the tables have no goto (treated as a rejection)."""
        production = self.tables.grammar.productions[production_index]
        values = []
        for _symbol in production.rhs:
            values.append(stack.value)
            stack = stack.prev
        values.reverse()
        value = build_value(production, values, context)
        context.on_reduce(production, value, condition)
        goto_state = self.tables.goto[stack.state].get(production.lhs)
        if goto_state is None:
            return None
        return _StackNode(goto_state, production.lhs, value, stack)

    def _reduce(self, subparser: Subparser, production_index: int,
                condition: Any, heads: Tuple[Tuple[Any, TokenNode], ...],
                context: ParserContext) -> List[Subparser]:
        """Reduce the common stack once for ``heads``, which hold under
        ``condition`` together."""
        stack = self._reduce_stack(subparser.stack, production_index,
                                   condition, context)
        if stack is None:
            return []
        return [Subparser(heads, stack, context, condition)]

    def _shift(self, subparser: Subparser,
               heads: Sequence[_Classified],
               context: ParserContext, manager: Any,
               stats: FMLRStats, whole: Any = None) -> List[Subparser]:
        """Shift the earliest head; with lazy shifts, the other heads
        stay behind in one multi-headed subparser.  ``whole``, when
        given, is the condition of all of ``heads`` together."""
        out: List[Subparser] = []
        cond, node, terminal, action = heads[0]
        rest = heads[1:]
        if rest:
            stats.lazy_shift_count += 1
        new_stack = _StackNode(action[1], terminal, node.token,
                               subparser.stack)
        new_heads = self._advance(cond, node.succ, manager)
        shift_context = context if not rest else context.fork_context()
        if new_heads:
            out.append(Subparser(tuple(new_heads), new_stack,
                                 shift_context, cond))
        if rest:
            out.append(Subparser(
                tuple(head[:2] for head in rest), subparser.stack, context,
                None if whole is None else whole & ~cond))
        return out

    # -- merging ------------------------------------------------------------

    def _try_merge(self, left: Subparser, right: Subparser,
                   manager: Any) -> Optional[Subparser]:
        if len(left.heads) != len(right.heads):
            return None
        for (_cl, nl), (_cr, nr) in zip(left.heads, right.heads):
            if nl is not nr:
                return None
        left_cond = left.condition(manager)
        right_cond = right.condition(manager)
        merged_stack = self._merge_stacks(left.stack, right.stack,
                                          left_cond, right_cond)
        if merged_stack is None:
            return None
        if not left.context.may_merge(right.context):
            return None
        context = left.context.merge_contexts(right.context, left_cond,
                                              right_cond)
        heads = tuple((cl | cr, node) for (cl, node), (cr, _n)
                      in zip(left.heads, right.heads))
        return Subparser(heads, merged_stack, context,
                         left_cond | right_cond)

    def _merge_stacks(self, left: _StackNode, right: _StackNode,
                      left_cond: Any, right_cond: Any) \
            -> Optional[_StackNode]:
        """Equal stacks merge; a differing value merges only at a
        complete nonterminal, becoming a static choice node (§5.1)."""
        if left is right:
            return left
        if left.depth != right.depth:
            return None
        grammar = self.tables.grammar
        # Walk down, collecting the differing prefix.
        prefix: List[Tuple[int, Optional[str], Any, Any]] = []
        l, r = left, right
        while l is not r:
            if l is None or r is None:
                return None
            if l.state != r.state or l.symbol != r.symbol:
                return None
            if l.value is r.value or l.value == r.value:
                merged_value = l.value
            elif self.options.choice_merging and l.symbol is not None \
                    and grammar.is_complete(l.symbol):
                merged_value = make_choice(
                    [(left_cond, l.value), (right_cond, r.value)])
            else:
                return None
            prefix.append((l.state, l.symbol, merged_value))
            l, r = l.prev, r.prev
        # Rebuild the differing prefix on the shared tail.
        stack = l
        for state, symbol, value in reversed(prefix):
            stack = _StackNode(state, symbol, value, stack)
        return stack


def follow_set(condition: Any, element: StreamElement,
               manager: Any) -> List[Tuple[Any, TokenNode]]:
    """Algorithm 3: the first language token on each path through
    static conditionals from ``element``, with presence conditions.

    Implemented as a forward closure over the stream DAG: branch nodes
    are processed in position order (each exactly once, with their
    incoming conditions OR-merged), so the computation is linear in the
    reachable prefix even for long chains of conditionals.
    """
    if isinstance(element, TokenNode):
        return [] if condition.is_false() else [(condition, element)]
    pending: Dict[int, List] = {}

    def add(cond: Any, elem: StreamElement) -> None:
        if cond.is_false():
            return
        entry = pending.get(id(elem))
        if entry is not None:
            entry[2] = entry[2] | cond
        else:
            pending[id(elem)] = [elem.position, elem, cond]

    add(condition, element)
    while True:
        branch_entries = [entry for entry in pending.values()
                          if isinstance(entry[1], BranchNode)]
        if not branch_entries:
            break
        entry = min(branch_entries, key=lambda e: e[0])
        del pending[id(entry[1])]
        node, cond = entry[1], entry[2]
        for branch_cond, sub_element in node.alternatives:
            add(cond & branch_cond, sub_element)
    result = [(entry[2], entry[1]) for entry in pending.values()]
    result.sort(key=lambda pair: pair[1].position)
    return result
