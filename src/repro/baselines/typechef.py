"""The TypeChef-proxy baseline: SAT-backed presence conditions.

TypeChef represents presence conditions as formulas that must be
converted to conjunctive normal form for its SAT solver; the paper
attributes TypeChef's latency knee (Figure 9, ~25 s then a long tail)
to exactly this conversion, where SuperC's BDDs answer the same
queries canonically (§6.3).

This module provides a drop-in condition algebra with the same
interface as :class:`repro.bdd.BDDManager`/``BDDNode`` — structural
formula nodes whose feasibility test performs naive distributive CNF
conversion plus a hand-written DPLL solver.  Running the *same*
preprocessor and FMLR engine over this algebra isolates the paper's
claimed mechanism: everything else is identical, only the condition
representation changes.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

# A CNF clause is a frozenset of literals; a literal is (name, polarity).
Literal = Tuple[str, bool]
Clause = FrozenSet[Literal]

_MISSING = object()  # cache sentinel (None is a valid cached value)

_TREE_SIZE_CAP = 4096  # saturation point for Formula.tree_size


class Formula:
    """A boolean formula node (var / not / and / or / const)."""

    __slots__ = ("op", "children", "name", "value", "manager", "_sat",
                 "_cnf", "_literals", "_model", "_residuals",
                 "_support", "_restricted_sat", "tree_size",
                 "_tseitin")

    def __init__(self, manager: "FormulaManager", op: str,
                 children: Tuple["Formula", ...] = (),
                 name: str = "", value: bool = False):
        self.manager = manager
        self.op = op
        self.children = children
        self.name = name
        self.value = value
        self._sat: Optional[bool] = None
        self._cnf: Optional[List[Clause]] = None
        # When this formula is a pure conjunction of literals, the
        # name->polarity map (None otherwise).  Maintained
        # incrementally at construction so that satisfiability of the
        # dominant presence-condition shape is O(1) per query instead
        # of a full-tree walk.
        self._literals: Optional[Dict[str, bool]] = None
        # A cached satisfying assignment, when one is known.  Parent
        # conjunctions try to *extend* a child's model with the other
        # side's literals (O(k)), which covers the dominant presence-
        # condition query shape without touching the SAT solver.
        self._model: Optional[Dict[str, bool]] = None
        # Conjunct decomposition: this formula viewed as
        # literals ∧ residual₁ ∧ residual₂ ∧ …, where residuals are
        # non-literal conjuncts.  When residuals are pairwise
        # variable-disjoint, satisfiability decomposes exactly.
        self._residuals: Optional[Tuple["Formula", ...]] = None
        self._support: Optional[FrozenSet[str]] = None
        self._restricted_sat: Optional[Dict[Tuple, bool]] = None
        # Saturating *tree* size: formulas are hash-consed DAGs, and
        # tree-expanding a shared DAG (naive CNF, NNF) explodes; past
        # the saturation cap conversion goes straight to the DAG-aware
        # Tseitin encoding.
        self.tree_size = 1 + sum(child.tree_size for child in children)
        if self.tree_size > _TREE_SIZE_CAP:
            self.tree_size = _TREE_SIZE_CAP
        # (aux literal, defining clauses) for the DAG-aware Tseitin
        # encoding; filled on demand, shared across queries.
        self._tseitin: Optional[Tuple[Literal, List[Clause]]] = None
        if op == "var":
            self._literals = {name: True}
            self._model = self._literals
            self._residuals = ()
        elif op == "not" and children[0].op == "var":
            self._literals = {children[0].name: False}
            self._model = self._literals
            self._residuals = ()
        elif op in ("or", "not"):
            # The node is a single non-literal conjunct (an atom from
            # the decomposition's point of view).
            self._residuals = (self,)
        elif op == "and":
            if any(child._sat is False for child in children):
                self._sat = False
            else:
                self._merge_conjunction(children)
        elif op == "or":
            for child in children:
                if child._sat is True:
                    self._sat = True
                    self._model = child._model
                    break

    def _merge_conjunction(self, children) -> None:
        """Combine the children's conjunct decompositions."""
        left, right = children
        if left._literals is None or right._literals is None or \
                left._residuals is None or right._residuals is None:
            # At least one side is not decomposable; still try the
            # cheap model extension for the SAT answer.
            for big, small in ((left, right), (right, left)):
                if big._model is not None and \
                        small._literals is not None and \
                        small._residuals == ():
                    extended = _extend_model(big._model,
                                             small._literals)
                    if extended is not None:
                        self._sat = True
                        self._model = extended
                        return
            return
        small_map, big_map = left._literals, right._literals
        if len(small_map) > len(big_map):
            small_map, big_map = big_map, small_map
        merged = dict(big_map)
        for key, polarity in small_map.items():
            if merged.setdefault(key, polarity) != polarity:
                self._sat = False  # complementary literals
                return
        self._literals = merged
        residuals = left._residuals
        for residual in right._residuals:
            if residual not in residuals:
                residuals = residuals + (residual,)
        if len(residuals) > 12:
            self._literals = None
            return  # too wide: fall back to the solver on demand
        self._residuals = residuals
        if not residuals:
            self._sat = True
            self._model = merged
        elif self._model is None:
            for big, small in ((left, right), (right, left)):
                if big._model is not None and \
                        small._literals is not None and \
                        small._residuals == ():
                    extended = _extend_model(big._model,
                                             small._literals)
                    if extended is not None:
                        self._sat = True
                        self._model = extended
                        break

    # -- algebra ------------------------------------------------------------
    # Nodes are hash-consed through the manager (TypeChef caches
    # formulae too); structural sharing keeps SAT/CNF caches effective.

    def __and__(self, other: "Formula") -> "Formula":
        if self.op == "const":
            return other if self.value else self
        if other.op == "const":
            return self if other.value else other
        if self is other:
            return self
        return self.manager._mk("and", (self, other))

    def __or__(self, other: "Formula") -> "Formula":
        if self.op == "const":
            return self if self.value else other
        if other.op == "const":
            return other if other.value else self
        if self is other:
            return self
        joined = _join_or(self, other)
        if joined is not None:
            return joined
        return self.manager._mk("or", (self, other))

    def __invert__(self) -> "Formula":
        if self.op == "const":
            return self.manager.constant(not self.value)
        if self.op == "not":
            return self.children[0]
        return self.manager._mk("not", (self,))

    def implies(self, other: "Formula") -> "Formula":
        return ~self | other

    def equiv(self, other: "Formula") -> "Formula":
        return (self & other) | (~self & ~other)

    # -- queries ------------------------------------------------------------

    def is_satisfiable(self) -> bool:
        if self._sat is None:
            self.manager.sat_queries += 1
            decomposed = self._solve_decomposed()
            if decomposed is None:
                model = _dpll_model(list(self.to_cnf()), {})
                self._sat = model is not None
                self._model = model
            else:
                self._sat = decomposed
        return self._sat

    def support_set(self) -> FrozenSet[str]:
        """Variables this formula mentions (cached)."""
        if self._support is None:
            names = set()
            stack = [self]
            while stack:
                node = stack.pop()
                if node.op == "var":
                    names.add(node.name)
                else:
                    stack.extend(node.children)
            self._support = frozenset(names)
        return self._support

    def _solve_decomposed(self) -> Optional[bool]:
        """Exact satisfiability via the conjunct decomposition:
        literals ∧ residuals, valid when residuals are pairwise
        variable-disjoint (their only interaction is through the fixed
        literals).  Returns None when not applicable."""
        if self._literals is None or not self._residuals:
            return None
        literals = self._literals
        supports = [residual.support_set()
                    for residual in self._residuals]
        for i, left in enumerate(supports):
            for right in supports[i + 1:]:
                if left & right:
                    return None  # entangled residuals: full solver
        model = dict(literals)
        for residual, support in zip(self._residuals, supports):
            relevant = tuple(sorted(
                (name, literals[name]) for name in support
                if name in literals))
            cache = residual._restricted_sat
            if cache is None:
                cache = residual._restricted_sat = {}
            sub_model = cache.get(relevant, _MISSING)
            if sub_model is _MISSING:
                clauses = list(residual.to_cnf())
                clauses.extend(frozenset({literal})
                               for literal in relevant)
                sub_model = _dpll_model(clauses, {})
                cache[relevant] = sub_model
            if sub_model is None:
                return False
            for key, value in sub_model.items():
                model.setdefault(key, value)
        self._model = model
        return True

    def is_false(self) -> bool:
        return not self.is_satisfiable()

    def is_true(self) -> bool:
        return (~self).is_false()

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        op = self.op
        if op == "const":
            return self.value
        if op == "var":
            return assignment.get(self.name, False)
        if op == "not":
            return not self.children[0].evaluate(assignment)
        if op == "and":
            return all(c.evaluate(assignment) for c in self.children)
        return any(c.evaluate(assignment) for c in self.children)

    def to_expr_string(self) -> str:
        op = self.op
        if op == "const":
            return "1" if self.value else "0"
        if op == "var":
            return self.name
        if op == "not":
            return "!(" + self.children[0].to_expr_string() + ")"
        joiner = " && " if op == "and" else " || "
        return "(" + joiner.join(c.to_expr_string()
                                 for c in self.children) + ")"

    # -- CNF conversion (the bottleneck, by design) ----------------------------

    def to_cnf(self) -> List[Clause]:
        """Naive distributive CNF conversion (no auxiliary variables),
        mirroring the exponential behaviour the paper blames for
        TypeChef's scalability knee.  A clause budget caps the worst
        case: beyond it, conversion falls back to a Tseitin encoding
        (equisatisfiable, linear), so the proxy stays usable while the
        conversion cost remains the dominant term.

        Clause sets are cached per (hash-consed) node and reused by
        parent conjunctions/disjunctions, as TypeChef's formula cache
        does; negations convert their subtree afresh (NNF push-down).
        """
        if self._cnf is None:
            self.manager.cnf_conversions += 1
            budget = self.manager.clause_budget
            try:
                op = self.op
                if self.tree_size >= _TREE_SIZE_CAP:
                    # A shared DAG this large cannot be tree-expanded.
                    raise _CNFBudgetExceeded()
                if op == "const":
                    cnf = [] if self.value else [frozenset()]
                elif op == "var":
                    cnf = [frozenset({(self.name, True)})]
                elif op == "and":
                    cnf = []
                    for child in self.children:
                        cnf.extend(child.to_cnf())
                    if len(cnf) > budget:
                        raise _CNFBudgetExceeded()
                elif op == "or":
                    parts = [child.to_cnf() for child in self.children]
                    cnf = parts[0]
                    for part in parts[1:]:
                        if len(cnf) * len(part) > budget:
                            raise _CNFBudgetExceeded()
                        cnf = _simplify(
                            [left | right for left, right
                             in itertools.product(cnf, part)])
                else:  # not: push the negation down, no cache reuse
                    cnf = _cnf(_nnf(self, False), budget)
            except _CNFBudgetExceeded:
                self.manager.tseitin_fallbacks += 1
                cnf = self.manager.tseitin_cnf(self)
            self._cnf = cnf
            self.manager.cnf_clauses += len(cnf)
        return self._cnf

    def __repr__(self) -> str:
        return f"Formula({self.to_expr_string()})"


def _nnf(formula: Formula, negate: bool) -> Formula:
    """Push negations down to literals."""
    manager = formula.manager
    op = formula.op
    if op == "const":
        return manager.constant(formula.value != negate)
    if op == "var":
        return Formula(manager, "not", (formula,)) if negate else formula
    if op == "not":
        return _nnf(formula.children[0], not negate)
    children = tuple(_nnf(child, negate) for child in formula.children)
    flipped = ("or" if op == "and" else "and") if negate else op
    return Formula(manager, flipped, children)


class _CNFBudgetExceeded(Exception):
    """Naive distribution produced too many clauses."""


def _cnf(formula: Formula, budget: int) -> List[Clause]:
    return _cnf_nnf(_nnf(formula, False), budget)


def _cnf_nnf(formula: Formula, budget: int) -> List[Clause]:
    op = formula.op
    if op == "const":
        return [] if formula.value else [frozenset()]
    if op == "var":
        return [frozenset({(formula.name, True)})]
    if op == "not":  # NNF: negation only on variables
        return [frozenset({(formula.children[0].name, False)})]
    if op == "and":
        clauses: List[Clause] = []
        for child in formula.children:
            clauses.extend(_cnf_nnf(child, budget))
            if len(clauses) > budget:
                raise _CNFBudgetExceeded()
        return _simplify(clauses)
    # or: distribute — the exponential step.
    parts = [_cnf_nnf(child, budget) for child in formula.children]
    clauses = parts[0]
    for part in parts[1:]:
        if len(clauses) * len(part) > budget:
            raise _CNFBudgetExceeded()
        clauses = [left | right
                   for left, right in itertools.product(clauses, part)]
        clauses = _simplify(clauses)
    return clauses


def _neg(literal: Literal) -> Literal:
    return (literal[0], not literal[1])


def _simplify(clauses: Iterable[Clause]) -> List[Clause]:
    """Drop tautological and duplicate clauses."""
    out: List[Clause] = []
    seen = set()
    for clause in clauses:
        if clause in seen:
            continue
        if any((name, not polarity) in clause
               for name, polarity in clause):
            continue  # tautology
        seen.add(clause)
        out.append(clause)
    return out


def _join_or(left: Formula, right: Formula) -> Optional[Formula]:
    """Structural or-simplification over conjunct decompositions.

    Two rules keep fork-merge conditions from snowballing (their BDD
    counterparts are automatic; TypeChef-style tools implement them as
    formula simplification):

    * complementary join: (L ∧ x) ∨ (L ∧ ¬x) → L
    * absorption:         L ∨ (L ∧ …) → L
    """
    left_lits, right_lits = left._literals, right._literals
    if left_lits is None or right_lits is None:
        return None
    left_res, right_res = left._residuals, right._residuals
    if left_res is None or right_res is None:
        return None
    left_set, right_set = set(left_res), set(right_res)
    # Absorption.
    if left_lits.items() <= right_lits.items() and \
            left_set <= right_set:
        return left
    if right_lits.items() <= left_lits.items() and \
            right_set <= left_set:
        return right
    # Complementary join.
    if left_set != right_set or len(left_lits) != len(right_lits):
        return None
    if set(left_lits) != set(right_lits):
        return None
    differing = [name for name, polarity in left_lits.items()
                 if right_lits[name] != polarity]
    if len(differing) != 1:
        return None
    dropped = differing[0]
    manager = left.manager
    result = manager.true
    for name in sorted(left_lits):
        if name == dropped:
            continue
        variable = manager.var(name)
        result = result & (variable if left_lits[name]
                           else ~variable)
    for residual in left_res:
        result = result & residual
    return result


def _extend_model(model: Dict[str, bool],
                  literals: Dict[str, bool]) \
        -> Optional[Dict[str, bool]]:
    """Extend a satisfying assignment with extra literals, or None if
    any literal contradicts it."""
    extended: Optional[Dict[str, bool]] = None
    for name, polarity in literals.items():
        known = model.get(name)
        if known is None:
            if extended is None:
                extended = dict(model)
            extended[name] = polarity
        elif known != polarity:
            return None
    return extended if extended is not None else model


def _assign(clauses: List[Clause], name: str,
            value: bool) -> List[Clause]:
    """Condition a clause set on one variable assignment."""
    out: List[Clause] = []
    for clause in clauses:
        if (name, value) in clause:
            continue  # clause satisfied
        if (name, not value) in clause:
            clause = frozenset(lit for lit in clause
                               if lit[0] != name)
        out.append(clause)
    return out


def _dpll_model(clauses: List[Clause],
                _assignment_unused: Dict[str, bool]) \
        -> Optional[Dict[str, bool]]:
    """Iterative DPLL with counting-based propagation and a trail.

    Clauses are indexed per variable, so propagating an assignment
    touches only the clauses that mention it — essential for the large
    Tseitin-encoded inputs this baseline produces.
    """
    clause_list = [tuple(clause) for clause in clauses if clause]
    if any(not clause for clause in clauses):
        return None
    if not clause_list:
        return {}
    occurrences: Dict[str, List[int]] = {}
    unassigned = [len(clause) for clause in clause_list]
    satisfied_by: List[int] = [-1] * len(clause_list)  # trail depth
    assignment: Dict[str, bool] = {}
    for index, clause in enumerate(clause_list):
        for name, _polarity in clause:
            occurrences.setdefault(name, []).append(index)

    trail: List[Tuple[str, bool, bool]] = []  # (name, value, decision)

    def propagate(name: str, value: bool, decision: bool) \
            -> Optional[List[int]]:
        """Assign and update clause counters; returns newly-unit
        clause indices, or None on conflict."""
        assignment[name] = value
        trail.append((name, value, decision))
        depth = len(trail)
        units: List[int] = []
        conflict = False
        # Process every occurrence even after a conflict so the trail
        # and counters stay symmetric for undo.
        for index in occurrences.get(name, ()):
            if satisfied_by[index] >= 0:
                continue
            clause = clause_list[index]
            if (name, value) in clause:
                satisfied_by[index] = depth
            else:
                unassigned[index] -= 1
                if unassigned[index] == 0:
                    conflict = True
                elif unassigned[index] == 1:
                    units.append(index)
        return None if conflict else units

    def undo_to(depth: int) -> None:
        while len(trail) > depth:
            name, _value, _decision = trail.pop()
            del assignment[name]
            for index in occurrences.get(name, ()):
                if satisfied_by[index] > len(trail):
                    satisfied_by[index] = -1
                    continue
                if satisfied_by[index] == -1:
                    unassigned[index] += 1
        # Recompute unassigned counts for clauses we un-satisfied is
        # handled above: a clause satisfied at depth d keeps its
        # counter frozen from the moment of satisfaction, so restoring
        # it only needs the satisfied flag cleared; counters for its
        # other literals were never decremented past that point.

    def unit_literal(index: int) -> Optional[Tuple[str, bool]]:
        for name, polarity in clause_list[index]:
            if name not in assignment:
                return (name, polarity)
        return None

    def propagate_queue(queue: List[int]) -> bool:
        while queue:
            index = queue.pop()
            if satisfied_by[index] >= 0:
                continue
            literal = unit_literal(index)
            if literal is None:
                continue
            result = propagate(literal[0], literal[1], False)
            if result is None:
                return False
            queue.extend(result)
        return True

    # Initial units.
    initial = [index for index, clause in enumerate(clause_list)
               if len(clause) == 1]
    if not propagate_queue(initial):
        return None

    decisions: List[int] = []  # trail depths of open decisions

    def pick() -> Optional[Tuple[str, bool]]:
        for index, clause in enumerate(clause_list):
            if satisfied_by[index] >= 0:
                continue
            literal = unit_literal(index)
            if literal is not None:
                return literal
        return None

    tried_other: List[bool] = []
    while True:
        literal = pick()
        if literal is None:
            return dict(assignment)
        depth = len(trail)
        decisions.append(depth)
        tried_other.append(False)
        name, polarity = literal
        units = propagate(name, polarity, True)
        ok = units is not None and propagate_queue(units)
        while not ok:
            # Backtrack to the most recent decision not yet flipped.
            while decisions and tried_other[-1]:
                undo_to(decisions.pop())
                tried_other.pop()
            if not decisions:
                return None
            depth = decisions[-1]
            # Identify the decision literal before undoing.
            decision_name, decision_value, _ = trail[depth]
            undo_to(depth)
            tried_other[-1] = True
            units = propagate(decision_name, not decision_value, True)
            ok = units is not None and propagate_queue(units)


class FormulaManager:
    """Drop-in replacement for :class:`BDDManager` using formulas."""

    def __init__(self, clause_budget: int = 20000) -> None:
        self._vars: Dict[str, Formula] = {}
        self._interned: Dict[Tuple, Formula] = {}
        self.true = Formula(self, "const", value=True)
        self.false = Formula(self, "const", value=False)
        self.true._sat = True
        self.false._sat = False
        self.clause_budget = clause_budget
        self._tseitin_counter = 0
        # Instrumentation for the Figure 9 analysis.
        self.sat_queries = 0
        self.cnf_conversions = 0
        self.cnf_clauses = 0
        self.tseitin_fallbacks = 0

    def stats(self) -> Dict[str, float]:
        """Observability snapshot mirroring ``BDDManager.stats`` so
        per-unit profiles work over either condition algebra."""
        return {
            "formulas": len(self._interned),
            "variables": len(self._vars),
            "sat_queries": self.sat_queries,
            "cnf_conversions": self.cnf_conversions,
            "cnf_clauses": self.cnf_clauses,
            "tseitin_fallbacks": self.tseitin_fallbacks,
        }

    def tseitin_cnf(self, formula: Formula) -> List[Clause]:
        """DAG-aware Tseitin encoding: every hash-consed node gets one
        auxiliary literal and its defining clauses exactly once,
        shared across all queries; a query's CNF is the defining
        clauses of the reachable nodes plus the root unit clause."""
        # Pass 1: assign literals bottom-up (iterative post-order).
        stack: List[Tuple[Formula, bool]] = [(formula, False)]
        while stack:
            node, ready = stack.pop()
            if node._tseitin is not None:
                continue
            op = node.op
            if op == "var":
                node._tseitin = ((node.name, True), [])
                continue
            if op == "const":
                name = f"@const{'T' if node.value else 'F'}"
                defs = [frozenset({(name, node.value)})]
                node._tseitin = ((name, True), defs)
                continue
            if not ready:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
                continue
            literals = [child._tseitin[0] for child in node.children]
            if op == "not":
                node._tseitin = (_neg(literals[0]), [])
                continue
            self._tseitin_counter += 1
            aux: Literal = (f"@t{self._tseitin_counter}", True)
            defs = []
            if op == "and":
                for literal in literals:
                    defs.append(frozenset({_neg(aux), literal}))
                defs.append(frozenset({aux} |
                                      {_neg(l) for l in literals}))
            else:  # or
                defs.append(frozenset({_neg(aux)} | set(literals)))
                for literal in literals:
                    defs.append(frozenset({aux, _neg(literal)}))
            node._tseitin = (aux, defs)
        # Pass 2: collect defining clauses of the reachable DAG.
        clauses: List[Clause] = []
        seen = set()
        walk = [formula]
        while walk:
            node = walk.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            clauses.extend(node._tseitin[1])
            walk.extend(node.children)
        clauses.append(frozenset({formula._tseitin[0]}))
        return clauses

    def _mk(self, op: str, children: Tuple[Formula, ...]) -> Formula:
        key = (op,) + tuple(id(child) for child in children)
        node = self._interned.get(key)
        if node is None:
            node = Formula(self, op, children)
            self._interned[key] = node
        return node

    def var(self, name: str) -> Formula:
        node = self._vars.get(name)
        if node is None:
            node = Formula(self, "var", name=name)
            node._sat = True
            self._vars[name] = node
        return node

    def nvar(self, name: str) -> Formula:
        return ~self.var(name)

    def constant(self, value: bool) -> Formula:
        return self.true if value else self.false

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return tuple(self._vars)

    def conjoin(self, nodes: Iterable[Formula]) -> Formula:
        result = self.true
        for node in nodes:
            result = result & node
        return result

    def disjoin(self, nodes: Iterable[Formula]) -> Formula:
        result = self.false
        for node in nodes:
            result = result | node
        return result

    def apply_and(self, left: Formula, right: Formula) -> Formula:
        return left & right

    def apply_or(self, left: Formula, right: Formula) -> Formula:
        return left | right

    def apply_not(self, node: Formula) -> Formula:
        return ~node
