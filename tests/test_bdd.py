"""Unit tests for the ROBDD substrate."""

import pytest

from repro.bdd import BDDManager


@pytest.fixture()
def mgr():
    return BDDManager()


class TestTerminals:
    def test_true_false_identity(self, mgr):
        assert mgr.true is mgr.constant(True)
        assert mgr.false is mgr.constant(False)
        assert mgr.true.is_true()
        assert mgr.false.is_false()
        assert mgr.true.is_terminal()

    def test_satisfiability(self, mgr):
        assert mgr.true.is_satisfiable()
        assert not mgr.false.is_satisfiable()
        assert mgr.true.is_tautology()
        assert not mgr.false.is_tautology()


class TestVariables:
    def test_var_interned(self, mgr):
        assert mgr.var("A") is mgr.var("A")

    def test_distinct_vars_distinct_nodes(self, mgr):
        assert mgr.var("A") is not mgr.var("B")

    def test_nvar(self, mgr):
        a = mgr.var("A")
        assert mgr.nvar("A") is ~a

    def test_variable_names_order(self, mgr):
        mgr.var("X")
        mgr.var("Y")
        mgr.var("X")
        assert mgr.variable_names == ("X", "Y")


class TestAlgebra:
    def test_canonicity_same_function_same_node(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        left = ~(a & b)
        right = ~a | ~b
        assert left is right  # De Morgan via hash-consing

    def test_involution(self, mgr):
        a = mgr.var("A")
        assert ~~a is a

    def test_excluded_middle(self, mgr):
        a = mgr.var("A")
        assert (a | ~a) is mgr.true
        assert (a & ~a) is mgr.false

    def test_absorption(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        assert (a | (a & b)) is a
        assert (a & (a | b)) is a

    def test_xor(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        assert (a ^ a) is mgr.false
        assert (a ^ mgr.false) is a
        assert (a ^ mgr.true) is ~a
        assert (a ^ b) is ((a & ~b) | (~a & b))

    def test_implies_equiv(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        assert a.implies(b) is (~a | b)
        assert a.equiv(a) is mgr.true
        assert a.equiv(~a) is mgr.false

    def test_conjoin_disjoin(self, mgr):
        a, b, c = mgr.var("A"), mgr.var("B"), mgr.var("C")
        assert mgr.conjoin([a, b, c]) is (a & b & c)
        assert mgr.disjoin([a, b, c]) is (a | b | c)
        assert mgr.conjoin([]) is mgr.true
        assert mgr.disjoin([]) is mgr.false

    def test_cross_manager_rejected(self, mgr):
        other = BDDManager()
        with pytest.raises(ValueError):
            mgr.apply_and(mgr.var("A"), other.var("A"))


class TestEvaluation:
    def test_evaluate(self, mgr):
        f = (mgr.var("A") & ~mgr.var("B")) | mgr.var("C")
        assert f.evaluate({"A": True, "B": False, "C": False})
        assert not f.evaluate({"A": True, "B": True, "C": False})
        assert f.evaluate({"C": True})

    def test_evaluate_missing_defaults_false(self, mgr):
        assert not mgr.var("A").evaluate({})

    def test_restrict(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        f = a & b
        assert f.restrict({"A": True}) is b
        assert f.restrict({"A": False}) is mgr.false
        assert f.restrict({"A": True, "B": True}) is mgr.true

    def test_restrict_unknown_var_is_noop(self, mgr):
        a = mgr.var("A")
        assert a.restrict({"Z": True}) is a

    def test_support(self, mgr):
        f = (mgr.var("A") & mgr.var("B")) | mgr.var("A")
        assert f.support() == ("A",)
        g = mgr.var("A") ^ mgr.var("B")
        assert g.support() == ("A", "B")
        assert mgr.true.support() == ()


class TestCounting:
    def test_sat_count_var(self, mgr):
        assert mgr.var("A").sat_count() == 1

    def test_sat_count_with_extra_vars(self, mgr):
        assert mgr.var("A").sat_count(["A", "B"]) == 2

    def test_sat_count_terminals(self, mgr):
        assert mgr.true.sat_count(["A", "B"]) == 4
        assert mgr.false.sat_count(["A", "B"]) == 0

    def test_sat_count_requires_support_coverage(self, mgr):
        f = mgr.var("A") & mgr.var("B")
        with pytest.raises(ValueError):
            f.sat_count(["A"])

    def test_one_sat(self, mgr):
        f = mgr.var("A") & ~mgr.var("B")
        model = f.one_sat()
        assert model == {"A": True, "B": False}
        assert mgr.false.one_sat() is None
        assert mgr.true.one_sat() == {}

    def test_all_sat_cubes_cover_function(self, mgr):
        a, b, c = mgr.var("A"), mgr.var("B"), mgr.var("C")
        f = (a & b) | c
        rebuilt = mgr.false
        for cube in f.all_sat():
            term = mgr.conjoin(
                mgr.var(n) if v else ~mgr.var(n) for n, v in cube.items())
            rebuilt = rebuilt | term
        assert rebuilt is f


class TestQuantification:
    def test_exists_removes_variable(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        f = a & b
        assert mgr.exists(["A"], f) is b
        assert mgr.exists(["A", "B"], f) is mgr.true

    def test_exists_of_contradiction(self, mgr):
        a = mgr.var("A")
        assert mgr.exists(["A"], a & ~a) is mgr.false

    def test_forall(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        assert mgr.forall(["A"], a | b) is b
        assert mgr.forall(["A"], a | ~a) is mgr.true
        assert mgr.forall(["A"], a) is mgr.false

    def test_unknown_variable_ignored(self, mgr):
        a = mgr.var("A")
        assert mgr.exists(["ZZZ"], a) is a
        assert mgr.forall(["ZZZ"], a) is a

    def test_project_onto(self, mgr):
        a, b, c = mgr.var("A"), mgr.var("B"), mgr.var("C")
        f = (a & b) | c
        shadow = mgr.project_onto(["A"], f)
        # With B and C free, any A admits a solution.
        assert shadow is mgr.true
        g = a & b
        assert mgr.project_onto(["A"], g) is a

    def test_exists_forall_duality(self, mgr):
        a, b = mgr.var("A"), mgr.var("B")
        f = (a & ~b) | (~a & b)
        assert mgr.exists(["A"], f) is ~mgr.forall(["A"], ~f)


class TestRendering:
    def test_terminal_strings(self, mgr):
        assert mgr.true.to_expr_string() == "1"
        assert mgr.false.to_expr_string() == "0"

    def test_var_string(self, mgr):
        assert mgr.var("CONFIG_X").to_expr_string() == "CONFIG_X"

    def test_negated_var_string(self, mgr):
        assert (~mgr.var("A")).to_expr_string() == "!A"

    def test_more_than_eight_cubes_are_elided(self, mgr):
        def parity(names):
            node = mgr.false
            for name in names:
                node = node ^ mgr.var(name)
            return node

        # Odd parity over four variables has exactly 8 cubes; over five
        # it has 16, of which the first 8 are shown.
        assert parity("ABCD").to_expr_string() == (
            "!A && !B && !C && D || !A && !B && C && !D || "
            "!A && B && !C && !D || !A && B && C && D || "
            "A && !B && !C && !D || A && !B && C && D || "
            "A && B && !C && D || A && B && C && !D")
        assert parity("ABCDE").to_expr_string() == (
            "!A && !B && !C && !D && E || !A && !B && !C && D && !E || "
            "!A && !B && C && !D && !E || !A && !B && C && D && E || "
            "!A && B && !C && !D && !E || !A && B && !C && D && E || "
            "!A && B && C && !D && E || !A && B && C && D && !E || ...")
