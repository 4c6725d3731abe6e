"""A reference ROBDD over object nodes, for the kernel equivalence test.

This is the straightforward hash-consed design that
:mod:`repro.bdd.bdd` replaced with an index-based node table: one
Python object per node and one string-dispatched ``_apply`` with a
shared computed table.  ``tests/test_bdd_reference.py`` runs the same
operation sequences through both and requires the same node ids, the
same node structure and the same counters.
"""

from typing import Dict, Optional, Tuple


class RefNode:
    __slots__ = ("var", "low", "high", "value", "_id")

    def __init__(self, var: Optional[int], low: Optional["RefNode"],
                 high: Optional["RefNode"], value: Optional[bool],
                 node_id: int):
        self.var = var
        self.low = low
        self.high = high
        self.value = value
        self._id = node_id

    def is_terminal(self) -> bool:
        return self.var is None

    def is_true(self) -> bool:
        return self.var is None and self.value is True

    def is_false(self) -> bool:
        return self.var is None and self.value is False


class RefManager:
    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._unique: Dict[Tuple[int, int, int], RefNode] = {}
        self._apply_cache: Dict[Tuple[str, int, int], RefNode] = {}
        self._not_cache: Dict[int, RefNode] = {}
        self._next_id = 0
        self.nodes_created = 0
        self.apply_calls = 0
        self.apply_cache_hits = 0
        self.false = self._new(None, None, None, False)
        self.true = self._new(None, None, None, True)

    def _new(self, var, low, high, value) -> RefNode:
        node = RefNode(var, low, high, value, self._next_id)
        self._next_id += 1
        return node

    def _mk(self, var: int, low: RefNode, high: RefNode) -> RefNode:
        if low is high:
            return low
        key = (var, low._id, high._id)
        node = self._unique.get(key)
        if node is None:
            node = self._unique[key] = self._new(var, low, high, None)
            self.nodes_created += 1
        return node

    def var(self, name: str) -> RefNode:
        index = self._index.setdefault(name, len(self._index))
        return self._mk(index, self.false, self.true)

    def apply_not(self, node: RefNode) -> RefNode:
        cached = self._not_cache.get(node._id)
        if cached is not None:
            return cached
        if node.is_terminal():
            result = self.false if node.value else self.true
        else:
            result = self._mk(node.var, self.apply_not(node.low),
                              self.apply_not(node.high))
        self._not_cache[node._id] = result
        return result

    def _apply(self, op: str, left: RefNode, right: RefNode) -> RefNode:
        if op == "and":
            if left.is_false() or right.is_false():
                return self.false
            if left.is_true():
                return right
            if right.is_true() or left is right:
                return left
        elif op == "or":
            if left.is_true() or right.is_true():
                return self.true
            if left.is_false():
                return right
            if right.is_false() or left is right:
                return left
        else:  # xor
            if left is right:
                return self.false
            if left.is_false():
                return right
            if right.is_false():
                return left
            if left.is_true():
                return self.apply_not(right)
            if right.is_true():
                return self.apply_not(left)
        if left._id > right._id:
            left, right = right, left
        key = (op, left._id, right._id)
        self.apply_calls += 1
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.apply_cache_hits += 1
            return cached
        left_var = left.var if left.var is not None else float("inf")
        right_var = right.var if right.var is not None else float("inf")
        if left_var == right_var:
            var = left.var
            low = self._apply(op, left.low, right.low)
            high = self._apply(op, left.high, right.high)
        elif left_var < right_var:
            var = left.var
            low = self._apply(op, left.low, right)
            high = self._apply(op, left.high, right)
        else:
            var = right.var
            low = self._apply(op, left, right.low)
            high = self._apply(op, left, right.high)
        result = self._apply_cache[key] = self._mk(var, low, high)
        return result

    def _restrict(self, node: RefNode, fixed: Dict[int, bool],
                  cache: Dict[int, RefNode]) -> RefNode:
        if node.is_terminal():
            return node
        cached = cache.get(node._id)
        if cached is not None:
            return cached
        if node.var in fixed:
            branch = node.high if fixed[node.var] else node.low
            result = self._restrict(branch, fixed, cache)
        else:
            result = self._mk(node.var,
                              self._restrict(node.low, fixed, cache),
                              self._restrict(node.high, fixed, cache))
        cache[node._id] = result
        return result

    def restrict(self, node: RefNode, name: str, value: bool) -> RefNode:
        if name not in self._index:
            return node
        return self._restrict(node, {self._index[name]: value}, {})

    def exists(self, name: str, node: RefNode) -> RefNode:
        index = self._index.get(name)
        if index is None:
            return node
        low = self._restrict(node, {index: False}, {})
        high = self._restrict(node, {index: True}, {})
        return self._apply("or", low, high)

    def stats(self) -> Dict[str, float]:
        calls = self.apply_calls
        return {
            "nodes": len(self._unique),
            "nodes_created": self.nodes_created,
            "variables": len(self._index),
            "apply_calls": calls,
            "apply_cache_hits": self.apply_cache_hits,
            "apply_cache_hit_rate":
                round(self.apply_cache_hits / calls, 4) if calls
                else 0.0,
        }
