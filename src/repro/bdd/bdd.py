"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

SuperC represents presence conditions as BDDs (the paper uses JavaBDD):
they are canonical, so two boolean functions are equal if and only if
their BDD representations are the same node, which makes infeasibility
testing (``c == FALSE``) and condition comparison constant time.

This module is a self-contained, hash-consed ROBDD implementation with
the operations the preprocessor and FMLR parser need: negation,
conjunction, disjunction, implication, equivalence, restriction,
satisfiability, and model enumeration.

Variables are interned by name in a :class:`BDDManager`; variable order
is the order of first registration.  All nodes created by one manager
may be freely combined with each other but never with nodes from another
manager.

**Node table.**  The manager follows the standard package design
(Brace, Rudell & Bryant, DAC 1990): inside the kernel a node is an int.
0 is FALSE, 1 is TRUE, and every other id indexes the parallel lists
``_level``, ``_lo`` and ``_hi``; ``_unique`` maps ``(level, lo, hi)``
to its id, and ids are allocated in creation order.  AND and OR are
two recursive closures over these tables, each with its own computed
table keyed by the ordered id pair, and they resolve terminal children
and equal operands before recursing.  A :class:`BDDNode` is the
canonical handle ``(manager, _id)`` of an id that leaves the kernel.
The counters are derived from the tables: ``nodes_created`` is
``len(_unique)``, ``apply_calls`` is the cache hits plus the sizes of
the computed tables, and only the hit count is incremented, on a hit.

**Lifetime.**  A manager and everything it owns form no reference
cycle, so reference counting frees a unit's node table, computed
tables and handles as soon as the last handle or manager reference
drops; the cyclic collector never has to find them.  A handle holds
its manager; the manager holds its handles only weakly (``_handles``
maps an id to a ``weakref.ref``), so there is one *live* handle per
id: ``is``, ``hash`` and set membership behave as on hash-consed node
objects for as long as a handle is held, and an id whose handle died
gets a fresh one on its next use (code that memoises on ``id()`` of a
handle must hold the handle, or key on ``_id``).  ``true`` and
``false`` are handles like any other.  The recursive kernels and
walkers take themselves as an argument rather than closing over their
own name, since a closure that refers to itself is a cycle.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Tuple

FALSE_ID = 0
TRUE_ID = 1


class BDDNode:
    """A canonical handle on a node of the shared BDD DAG.

    Terminal nodes have ``var is None`` and carry ``value`` True/False.
    Internal nodes test ``var`` (an integer index) and branch to ``low``
    (var=False) and ``high`` (var=True).  There is one live handle per
    node id, so structural equality is identity while both sides are
    held.  A handle keeps its manager (and so the whole node table)
    alive; the manager does not keep its handles alive.
    """

    __slots__ = ("manager", "_id", "__weakref__")

    def __init__(self, manager: "BDDManager", node_id: int):
        self.manager = manager
        self._id = node_id

    # -- structure ---------------------------------------------------

    @property
    def var(self) -> Optional[int]:
        """The tested variable's index; None for the terminals."""
        node_id = self._id
        return self.manager._level[node_id] if node_id > TRUE_ID \
            else None

    @property
    def low(self) -> Optional["BDDNode"]:
        """The var=False child; None for the terminals."""
        node_id = self._id
        if node_id <= TRUE_ID:
            return None
        return self.manager._node(self.manager._lo[node_id])

    @property
    def high(self) -> Optional["BDDNode"]:
        """The var=True child; None for the terminals."""
        node_id = self._id
        if node_id <= TRUE_ID:
            return None
        return self.manager._node(self.manager._hi[node_id])

    @property
    def value(self) -> Optional[bool]:
        """True/False for the terminals; None for internal nodes."""
        node_id = self._id
        return node_id == TRUE_ID if node_id <= TRUE_ID else None

    def is_terminal(self) -> bool:
        """Return True for the constant nodes TRUE and FALSE."""
        return self._id <= TRUE_ID

    def is_true(self) -> bool:
        """Return True only for the constant TRUE node."""
        return self._id == TRUE_ID

    def is_false(self) -> bool:
        """Return True only for the constant FALSE node."""
        return self._id == FALSE_ID

    # -- boolean algebra ---------------------------------------------

    def __invert__(self) -> "BDDNode":
        return self.manager.apply_not(self)

    def __and__(self, other: "BDDNode") -> "BDDNode":
        return self.manager.apply_and(self, other)

    def __or__(self, other: "BDDNode") -> "BDDNode":
        return self.manager.apply_or(self, other)

    def __xor__(self, other: "BDDNode") -> "BDDNode":
        return self.manager.apply_xor(self, other)

    def implies(self, other: "BDDNode") -> "BDDNode":
        """Return the BDD for ``self -> other``."""
        return self.manager.apply_or(self.manager.apply_not(self), other)

    def equiv(self, other: "BDDNode") -> "BDDNode":
        """Return the BDD for ``self <-> other``."""
        return self.manager.apply_not(self.manager.apply_xor(self, other))

    # -- queries -----------------------------------------------------

    def is_satisfiable(self) -> bool:
        """A reduced BDD is satisfiable iff it is not the FALSE node."""
        return self._id != FALSE_ID

    def is_tautology(self) -> bool:
        """A reduced BDD is a tautology iff it is the TRUE node."""
        return self._id == TRUE_ID

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment of variable names.

        Missing variables default to False, matching the preprocessor
        convention that unset configuration variables are undefined.
        """
        manager = self.manager
        names, level = manager._names, manager._level
        lo, hi = manager._lo, manager._hi
        node = self._id
        while node > TRUE_ID:
            if assignment.get(names[level[node]], False):
                node = hi[node]
            else:
                node = lo[node]
        return node == TRUE_ID

    def restrict(self, assignment: Dict[str, bool]) -> "BDDNode":
        """Partially evaluate: fix some variables to constants."""
        manager = self.manager
        by_index = {
            manager._index[name]: value
            for name, value in assignment.items()
            if name in manager._index
        }
        return manager._node(manager._restrict(self._id, by_index, {}))

    def support(self) -> Tuple[str, ...]:
        """Return the names of variables this function depends on."""
        manager = self.manager
        level, lo, hi = manager._level, manager._lo, manager._hi
        seen: set = set()
        visited: set = set()
        stack = [self._id]
        while stack:
            node = stack.pop()
            if node <= TRUE_ID or node in visited:
                continue
            visited.add(node)
            seen.add(level[node])
            stack.append(lo[node])
            stack.append(hi[node])
        return tuple(manager._names[v] for v in sorted(seen))

    def sat_count(self, variables: Optional[Iterable[str]] = None) -> int:
        """Count satisfying assignments over ``variables``.

        Defaults to the variables in this node's support.
        """
        manager = self.manager
        names = tuple(variables) if variables is not None else self.support()
        for name in names:
            manager.var(name)  # register any not-yet-seen variables
        order = sorted(manager._index[n] for n in names)
        position = {index: depth for depth, index in enumerate(order)}
        for name in self.support():
            if manager._index[name] not in position:
                raise ValueError(
                    "sat_count variables must cover the support; "
                    f"missing {name!r}")
        level, lo, hi = manager._level, manager._lo, manager._hi
        size = len(order)
        cache: Dict[Tuple[int, int], int] = {}

        def count(node: int, depth: int, count) -> int:
            # depth indexes into `order`; free variables between levels
            # multiply the count by two.
            if node <= TRUE_ID:
                return (1 << (size - depth)) if node == TRUE_ID else 0
            key = (node, depth)
            if key in cache:
                return cache[key]
            at = position[level[node]]
            result = (1 << (at - depth)) * (count(lo[node], at + 1, count) +
                                            count(hi[node], at + 1, count))
            cache[key] = result
            return result

        return count(self._id, 0, count)

    def one_sat(self) -> Optional[Dict[str, bool]]:
        """Return one satisfying partial assignment, or None."""
        if self._id == FALSE_ID:
            return None
        manager = self.manager
        names, level = manager._names, manager._level
        lo, hi = manager._lo, manager._hi
        assignment: Dict[str, bool] = {}
        node = self._id
        while node > TRUE_ID:
            if lo[node] != FALSE_ID:
                assignment[names[level[node]]] = False
                node = lo[node]
            else:
                assignment[names[level[node]]] = True
                node = hi[node]
        return assignment

    def all_sat(self) -> Iterator[Dict[str, bool]]:
        """Yield all satisfying partial assignments (cube enumeration)."""
        if self._id == FALSE_ID:
            return
        manager = self.manager
        names, level = manager._names, manager._level
        lo, hi = manager._lo, manager._hi

        def walk(node: int, partial: Dict[str, bool],
                 walk) -> Iterator[Dict[str, bool]]:
            if node <= TRUE_ID:
                if node == TRUE_ID:
                    yield dict(partial)
                return
            name = names[level[node]]
            partial[name] = False
            yield from walk(lo[node], partial, walk)
            partial[name] = True
            yield from walk(hi[node], partial, walk)
            del partial[name]

        yield from walk(self._id, {}, walk)

    def iter_models(self, variables: Optional[Iterable[str]] = None) \
            -> Iterator[Dict[str, bool]]:
        """Yield *total* satisfying assignments over ``variables``.

        Unlike :meth:`all_sat`, which yields partial cubes, every
        yielded dict assigns every requested variable; variables absent
        from a cube are expanded both ways.  ``variables`` defaults to
        the node's support and must cover it.  This is the
        sat-assignment iterator the differential harness
        (:mod:`repro.qa`) uses to enumerate configurations.
        """
        names = tuple(variables) if variables is not None \
            else self.support()
        for name in names:
            self.manager.var(name)
        missing = [name for name in self.support() if name not in names]
        if missing:
            raise ValueError(
                "iter_models variables must cover the support; "
                f"missing {missing[0]!r}")
        for cube in self.all_sat():
            free = [name for name in names if name not in cube]
            for bits in itertools.product((False, True),
                                          repeat=len(free)):
                model = dict(cube)
                model.update(zip(free, bits))
                yield model

    def random_model(self, rng,
                     variables: Optional[Iterable[str]] = None) \
            -> Optional[Dict[str, bool]]:
        """One uniformly random total satisfying assignment, or None.

        ``rng`` is a :class:`random.Random`; sampling walks the DAG
        weighting each branch by its model count, so every satisfying
        assignment over ``variables`` is equally likely.
        """
        if self.is_false():
            return None
        names = tuple(variables) if variables is not None \
            else self.support()
        total = self.sat_count(names)  # also validates coverage
        if total == 0:
            return None
        order = sorted((self.manager._index[n] for n in names))
        by_index = {index: self.manager._names[index] for index in order}
        model: Dict[str, bool] = {}
        node = self
        depth = 0
        while depth < len(order):
            index = order[depth]
            if node.is_terminal() or node.var != index:
                # Free variable at this level: both values satisfiable.
                model[by_index[index]] = bool(rng.getrandbits(1))
                depth += 1
                continue
            low_count = node.low.sat_count(
                [by_index[i] for i in order[depth + 1:]]) \
                if not node.low.is_false() else 0
            high_count = node.high.sat_count(
                [by_index[i] for i in order[depth + 1:]]) \
                if not node.high.is_false() else 0
            pick_high = rng.randrange(low_count + high_count) >= low_count
            model[by_index[index]] = pick_high
            node = node.high if pick_high else node.low
            depth += 1
        return model

    # -- rendering ---------------------------------------------------

    def to_expr_string(self) -> str:
        """Render as a DNF-ish string of satisfying cubes (for messages):
        the first 8 cubes, then ``|| ...`` if there are more."""
        if self.is_true():
            return "1"
        if self.is_false():
            return "0"
        cubes = list(itertools.islice(self.all_sat(), 9))
        rendered = " || ".join(
            " && ".join(name if value else "!" + name
                        for name, value in sorted(cube.items())) or "1"
            for cube in cubes[:8])
        if len(cubes) > 8:
            rendered += " || ..."
        return rendered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_terminal():
            return "BDD(TRUE)" if self.value else "BDD(FALSE)"
        return f"BDD({self.to_expr_string()})"

    def __hash__(self) -> int:
        return self._id

    # Equality is identity (one handle per node id); we do not override
    # __eq__ so `==` stays `is`-like for nodes of one manager, which
    # keeps set/dict membership fast.


class BDDManager:
    """Creates, interns, and combines BDD nodes.

    One manager per analysis run; the preprocessor and the parser share
    a single manager so presence conditions stay comparable.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        # The node table: id -> (level, lo, hi); the terminals' entries
        # are placeholders the kernels never read.
        self._level: List[Optional[int]] = [None, None]
        self._lo: List[int] = [FALSE_ID, TRUE_ID]
        self._hi: List[int] = [FALSE_ID, TRUE_ID]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        # Observability counter (repro.obs): computed-table hits, in a
        # cell the kernels share so that none of them holds the manager.
        self._hits = [0]
        self._and, self._and_cache = self._binary_kernel(FALSE_ID, TRUE_ID)
        self._or, self._or_cache = self._binary_kernel(TRUE_ID, FALSE_ID)
        # id -> weakref.ref of its live handle (see the module docstring).
        self._handles: Dict[int, "weakref.ref[BDDNode]"] = {}

    # -- node table ----------------------------------------------------

    def _node(self, node_id: int) -> BDDNode:
        """The canonical handle of ``node_id``."""
        ref = self._handles.get(node_id)
        node = ref() if ref is not None else None
        if node is None:
            node = BDDNode(self, node_id)
            self._handles[node_id] = weakref.ref(node)
        return node

    @property
    def true(self) -> BDDNode:
        """The constant TRUE node."""
        return self._node(TRUE_ID)

    @property
    def false(self) -> BDDNode:
        """The constant FALSE node."""
        return self._node(FALSE_ID)

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = self._unique[key] = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
        return node

    def _binary_kernel(self, absorbing: int, identity: int) \
            -> Tuple[Callable[[int, int], int], Dict[Tuple[int, int], int]]:
        """AND (absorbing FALSE, identity TRUE) or OR (absorbing TRUE,
        identity FALSE) on two ids, and its computed table.

        The recursive ``apply`` takes two distinct internal ids, smaller
        first; children are resolved against the terminal rules before
        recursing, so every call of it is a computed-table probe.  It
        recurses through its ``apply`` argument, not its own name, and
        counts hits into the shared ``_hits`` cell, so no closure here
        refers to itself or to the manager.
        """
        level, lo, hi = self._level, self._lo, self._hi
        unique = self._unique
        hits = self._hits
        cache: Dict[Tuple[int, int], int] = {}

        def apply(f: int, g: int, apply) -> int:
            key = (f, g)
            result = cache.get(key)
            if result is not None:
                hits[0] += 1
                return result
            f_level, g_level = level[f], level[g]
            if f_level == g_level:
                top = f_level
                f0, f1, g0, g1 = lo[f], hi[f], lo[g], hi[g]
            elif f_level < g_level:
                top = f_level
                f0, f1, g0, g1 = lo[f], hi[f], g, g
            else:
                top = g_level
                f0, f1, g0, g1 = f, f, lo[g], hi[g]
            if f0 == absorbing or g0 == absorbing:
                r0 = absorbing
            elif f0 == identity:
                r0 = g0
            elif g0 == identity or f0 == g0:
                r0 = f0
            else:
                r0 = apply(f0, g0, apply) if f0 < g0 \
                    else apply(g0, f0, apply)
            if f1 == absorbing or g1 == absorbing:
                r1 = absorbing
            elif f1 == identity:
                r1 = g1
            elif g1 == identity or f1 == g1:
                r1 = f1
            else:
                r1 = apply(f1, g1, apply) if f1 < g1 \
                    else apply(g1, f1, apply)
            if r0 == r1:  # _mk, inlined
                result = r0
            else:
                triple = (top, r0, r1)
                result = unique.get(triple)
                if result is None:
                    result = unique[triple] = len(level)
                    level.append(top)
                    lo.append(r0)
                    hi.append(r1)
            cache[key] = result
            return result

        def operator(f: int, g: int) -> int:
            if f == absorbing or g == absorbing:
                return absorbing
            if f == identity or f == g:
                return g
            if g == identity:
                return f
            return apply(f, g, apply) if f < g else apply(g, f, apply)

        return operator, cache

    def var(self, name: str) -> BDDNode:
        """Return (creating if needed) the BDD for a variable."""
        index = self._index.get(name)
        if index is None:
            index = len(self._names)
            self._names.append(name)
            self._index[name] = index
        return self._node(self._mk(index, FALSE_ID, TRUE_ID))

    def nvar(self, name: str) -> BDDNode:
        """Return the BDD for a negated variable."""
        return self.apply_not(self.var(name))

    def constant(self, value: bool) -> BDDNode:
        """Return the TRUE or FALSE terminal."""
        return self.true if value else self.false

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def num_nodes(self) -> int:
        """Number of live interned internal nodes (for instrumentation)."""
        return len(self._unique)

    @property
    def nodes_created(self) -> int:
        """Internal nodes allocated (none is ever freed)."""
        return len(self._unique)

    @property
    def apply_cache_hits(self) -> int:
        """Binary-op computed-table hits."""
        return self._hits[0]

    @property
    def apply_calls(self) -> int:
        """Binary-op computed-table probes: hits plus misses, and every
        miss leaves exactly one computed-table entry."""
        return (self.apply_cache_hits + len(self._and_cache) +
                len(self._or_cache) + len(self._xor_cache))

    def stats(self) -> Dict[str, float]:
        """Observability snapshot: node and op-cache counters, with
        the op-cache hit rate precomputed for profiles."""
        calls = self.apply_calls
        return {
            "nodes": len(self._unique),
            "nodes_created": self.nodes_created,
            "variables": len(self._names),
            "apply_calls": calls,
            "apply_cache_hits": self.apply_cache_hits,
            "apply_cache_hit_rate":
                round(self.apply_cache_hits / calls, 4) if calls
                else 0.0,
        }

    # -- apply -------------------------------------------------------

    def _not(self, f: int) -> int:
        if f <= TRUE_ID:
            return TRUE_ID - f
        result = self._not_cache.get(f)
        if result is None:
            result = self._mk(self._level[f], self._not(self._lo[f]),
                              self._not(self._hi[f]))
            self._not_cache[f] = result
        return result

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return FALSE_ID
        if f == FALSE_ID:
            return g
        if g == FALSE_ID:
            return f
        if f == TRUE_ID:
            return self._not(g)
        if g == TRUE_ID:
            return self._not(f)
        if f > g:
            f, g = g, f
        key = (f, g)
        result = self._xor_cache.get(key)
        if result is not None:
            self._hits[0] += 1
            return result
        level, lo, hi = self._level, self._lo, self._hi
        if level[f] == level[g]:
            top = level[f]
            r0 = self._xor(lo[f], lo[g])
            r1 = self._xor(hi[f], hi[g])
        elif level[f] < level[g]:
            top = level[f]
            r0 = self._xor(lo[f], g)
            r1 = self._xor(hi[f], g)
        else:
            top = level[g]
            r0 = self._xor(f, lo[g])
            r1 = self._xor(f, hi[g])
        result = self._xor_cache[key] = self._mk(top, r0, r1)
        return result

    def _own(self, node: BDDNode) -> int:
        """``node``'s id; a node of another manager is an error."""
        if node.manager is not self:
            raise ValueError("cannot combine BDD nodes from different "
                             "managers")
        return node._id

    def apply_not(self, node: BDDNode) -> BDDNode:
        return self._node(self._not(node._id))

    def apply_and(self, left: BDDNode, right: BDDNode) -> BDDNode:
        return self._node(self._and(self._own(left), self._own(right)))

    def apply_or(self, left: BDDNode, right: BDDNode) -> BDDNode:
        return self._node(self._or(self._own(left), self._own(right)))

    def apply_xor(self, left: BDDNode, right: BDDNode) -> BDDNode:
        return self._node(self._xor(self._own(left), self._own(right)))

    def conjoin(self, nodes: Iterable[BDDNode]) -> BDDNode:
        """AND together an iterable of nodes (TRUE for empty)."""
        result = TRUE_ID
        for node in nodes:
            result = self._and(result, self._own(node))
        return self._node(result)

    def disjoin(self, nodes: Iterable[BDDNode]) -> BDDNode:
        """OR together an iterable of nodes (FALSE for empty)."""
        result = FALSE_ID
        for node in nodes:
            result = self._or(result, self._own(node))
        return self._node(result)

    # -- quantification ------------------------------------------------

    def _quantify(self, names: Iterable[str], node: BDDNode,
                  combine: Callable[[int, int], int]) -> BDDNode:
        result = node._id
        for name in names:
            index = self._index.get(name)
            if index is None:
                continue
            low = self._restrict(result, {index: False}, {})
            high = self._restrict(result, {index: True}, {})
            result = combine(low, high)
        return self._node(result)

    def exists(self, names: Iterable[str], node: BDDNode) -> BDDNode:
        """Existential quantification: ∃names. node."""
        return self._quantify(names, node, self._or)

    def forall(self, names: Iterable[str], node: BDDNode) -> BDDNode:
        """Universal quantification: ∀names. node."""
        return self._quantify(names, node, self._and)

    def project_onto(self, names: Iterable[str],
                     node: BDDNode) -> BDDNode:
        """Quantify away every variable *not* in ``names``: the
        condition's shadow on a chosen sub-space of configuration
        variables (useful to ask "which CONFIG_FOO settings can enable
        this block?")."""
        keep = set(names)
        others = [name for name in node.support() if name not in keep]
        return self.exists(others, node)

    # -- restriction --------------------------------------------------

    def _restrict(self, node: int, fixed: Dict[int, bool],
                  cache: Dict[int, int]) -> int:
        if node <= TRUE_ID:
            return node
        cached = cache.get(node)
        if cached is not None:
            return cached
        level = self._level[node]
        if level in fixed:
            branch = self._hi[node] if fixed[level] else self._lo[node]
            result = self._restrict(branch, fixed, cache)
        else:
            result = self._mk(level,
                              self._restrict(self._lo[node], fixed, cache),
                              self._restrict(self._hi[node], fixed, cache))
        cache[node] = result
        return result
