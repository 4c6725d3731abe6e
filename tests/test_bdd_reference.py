"""The index-based BDD kernel against the object-node reference.

Random operation sequences run through ``tests/bdd_reference.py`` and
through :class:`repro.bdd.BDDManager`.  Both must allocate the same
node ids in the same order, build the same ``(var, low, high)``
structure and report the same counters, so presence conditions, node
ids and ``bdd.*`` metrics do not depend on the kernel.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from tests.bdd_reference import RefManager

VARS = ["A", "B", "C", "D", "E", "F"]
# Operand indices count back from the latest result (modulo the number
# of results), so that small indices build on recent, larger BDDs.
OPERAND = st.integers(0, 63)
# The first three variables of a drawn order are registered up front;
# "var" operations register the others as they come.
ORDERS = st.permutations(VARS)
BINARY = st.tuples(st.sampled_from(["and", "or", "xor"]), OPERAND, OPERAND)
OPS = st.lists(st.one_of(
    BINARY, BINARY, BINARY,
    st.tuples(st.just("var"), st.sampled_from(VARS)),
    st.tuples(st.just("not"), OPERAND),
    st.tuples(st.just("restrict"), OPERAND, st.sampled_from(VARS),
              st.booleans()),
    st.tuples(st.just("exists"), OPERAND, st.sampled_from(VARS)),
), min_size=10, max_size=60)


def run_both(order, ops):
    ref, mgr = RefManager(), BDDManager()
    pairs = [(ref.false, mgr.false), (ref.true, mgr.true)]
    ops = [("var", name) for name in order[:3]] + list(ops)
    for op in ops:
        kind = op[0]
        if kind == "var":
            pair = ref.var(op[1]), mgr.var(op[1])
        else:
            r, n = pairs[~(op[1] % len(pairs))]
            if kind == "not":
                pair = ref.apply_not(r), ~n
            elif kind == "restrict":
                pair = (ref.restrict(r, op[2], op[3]),
                        n.restrict({op[2]: op[3]}))
            elif kind == "exists":
                pair = ref.exists(op[2], r), mgr.exists([op[2]], n)
            else:
                r2, n2 = pairs[~(op[2] % len(pairs))]
                python_op = {"and": n.__and__, "or": n.__or__,
                             "xor": n.__xor__}[kind]
                pair = ref._apply(kind, r, r2), python_op(n2)
        assert pair[1]._id == pair[0]._id, op
        pairs.append(pair)
    return ref, mgr, pairs


def structure(node):
    if node.is_terminal():
        return node.value
    return node.var, node.low._id, node.high._id


@settings(max_examples=300, deadline=None)
@given(ORDERS, OPS)
def test_kernel_matches_reference(order, ops):
    ref, mgr, pairs = run_both(order, ops)
    for r, n in pairs:
        assert structure(n) == structure(r)
        assert mgr._node(n._id) is n
    assert mgr._unique == {key: node._id
                           for key, node in ref._unique.items()}
    assert mgr.stats() == ref.stats()
    assert mgr.stats()["nodes_created"] == mgr.num_nodes()


def test_reference_counts_a_nontrivial_sequence():
    """Low cofactors are built before high ones, and a repeated
    operation is a computed-table hit."""
    ops = [("var", "D"), ("xor", 2, 3), ("xor", 2, 1), ("and", 0, 1),
           ("or", 0, 6), ("not", 0), ("exists", 0, "C"),
           ("restrict", 0, "A", True), ("and", 5, 6)]
    ref, mgr, pairs = run_both("ABCD", ops)
    # (A ^ B) & (C ^ D): at A, the low cofactor !B & (C ^ D) is node
    # 10 and the high cofactor B & (C ^ D) is node 11.
    assert structure(pairs[8][1]) == (0, 10, 11)
    assert pairs[-1][1] is pairs[8][1]
    stats = mgr.stats()
    assert stats == ref.stats()
    assert stats["apply_calls"] > stats["apply_cache_hits"] > 0
