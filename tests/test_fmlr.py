"""Unit tests for the FMLR engine on small grammars.

The C front-end has its own tests; here the engine is exercised with
toy grammars over preprocessed conditional token streams, including
the paper's Figure 6 scenario (2^n configurations, O(1) subparsers).
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.errors import PHASE_PARSE, PHASE_RESOURCE, ResourceBudget
from repro.lexer.tokens import Token, TokenKind
from repro.obs import Tracer
from repro.parser import (Build, Grammar, LRParser, Node, ParseError,
                          ParserContext, StaticChoice, generate)
from repro.parser import fmlr
from repro.parser.ast import project as ast_project
from repro.parser.fmlr import (FMLROptions, FMLRParser,
                               OPTIMIZATION_LEVELS, SubparserExplosion,
                               follow_set)
from repro.parser.stream import BranchNode, TokenNode, build_stream, \
    stream_tokens
from tests.support import (assignment_for, ast_signature, preprocess,
                           simple_preprocess)


def classify(token):
    if token.kind is TokenKind.IDENTIFIER:
        return "IDENT"
    if token.kind is TokenKind.NUMBER:
        return "NUM"
    return token.text


def ident_list_grammar():
    g = Grammar("Unit")
    g.rule("Unit", ["Items"], build=Build.PASSTHROUGH)
    g.rule("Items", ["Items", "Item"], build=Build.LIST)
    g.rule("Items", ["Item"], build=Build.LIST)
    g.rule("Item", ["IDENT", ";"], node_name="Stmt")
    g.mark_complete("Item", "Items", "Unit")
    return generate(g)


def parse_source(source, grammar_tables=None, options=None):
    unit = preprocess(source)
    tables = grammar_tables or ident_list_grammar()
    parser = FMLRParser(tables, classify, options=options)
    result = parser.parse(unit.tree, unit.manager,
                          unit.feasible_condition)
    return unit, result


class TestStream:
    def test_flat_stream(self):
        unit = preprocess("a ; b ;")
        first = build_stream(unit.tree, unit.manager)
        nodes = stream_tokens(first)
        # 4 tokens + EOF sentinel.
        assert [n.token.text for n in nodes] == ["a", ";", "b", ";", ""]
        assert [n.position for n in nodes] == [0, 1, 2, 3, 4]

    def test_branch_node_built(self):
        unit = preprocess("#ifdef A\nx ;\n#endif\ny ;")
        first = build_stream(unit.tree, unit.manager)
        assert isinstance(first, BranchNode)
        # Two alternatives: the branch and the implicit else.
        assert len(first.alternatives) == 2

    def test_empty_branch_points_past_conditional(self):
        unit = preprocess("#ifdef A\nx ;\n#endif\ny ;")
        first = build_stream(unit.tree, unit.manager)
        implicit = [sub for _c, sub in first.alternatives
                    if isinstance(sub, TokenNode)
                    and sub.token.text == "y"]
        assert len(implicit) == 1

    def test_positions_document_order(self):
        unit = preprocess("#ifdef A\nx ;\n#else\nz ;\n#endif\ny ;")
        first = build_stream(unit.tree, unit.manager)
        nodes = stream_tokens(first)
        assert [n.token.text for n in nodes] == \
            ["x", ";", "z", ";", "y", ";", ""]


class TestFollowSet:
    def follow_of(self, source):
        unit = preprocess(source)
        first = build_stream(unit.tree, unit.manager)
        pairs = follow_set(unit.manager.true, first, unit.manager)
        return unit, [(cond.to_expr_string(), node.token.text)
                      for cond, node in pairs]

    def test_plain_token(self):
        _unit, pairs = self.follow_of("x ;")
        assert pairs == [("1", "x")]

    def test_single_conditional(self):
        _unit, pairs = self.follow_of("#ifdef A\nx ;\n#endif\ny ;")
        assert pairs == [("defined:A", "x"), ("!defined:A", "y")]

    def test_empty_branches_skipped(self):
        source = ("#ifdef A\n#else\n#endif\ny ;")
        _unit, pairs = self.follow_of(source)
        assert pairs == [("1", "y")]

    def test_sequence_of_conditionals(self):
        source = ("#ifdef A\na ;\n#endif\n"
                  "#ifdef B\nb ;\n#endif\n"
                  "rest ;")
        _unit, pairs = self.follow_of(source)
        texts = [t for _c, t in pairs]
        assert texts == ["a", "b", "rest"]
        # Conditions: a under A; b under !A&&B; rest under !A&&!B.
        assert pairs[0][0] == "defined:A"
        assert "!defined:A" in pairs[1][0] and "defined:B" in pairs[1][0]

    def test_conditions_partition(self):
        source = ("#ifdef A\na ;\n#elif defined(B)\nb ;\n#endif\nz ;")
        unit = preprocess(source)
        first = build_stream(unit.tree, unit.manager)
        pairs = follow_set(unit.manager.true, first, unit.manager)
        union = unit.manager.false
        for cond, _node in pairs:
            assert (union & cond).is_false()
            union = union | cond
        assert union.is_true()

    def test_nested_conditionals(self):
        source = ("#ifdef A\n#ifdef B\nab ;\n#endif\na ;\n#endif\nz ;")
        _unit, pairs = self.follow_of(source)
        assert [t for _c, t in pairs] == ["ab", "a", "z"]

    def test_eof_in_follow_set(self):
        _unit, pairs = self.follow_of("#ifdef A\nx ;\n#endif")
        assert [t for _c, t in pairs] == ["x", ""]


class TestBasicParsing:
    def test_unconditional(self):
        _unit, result = parse_source("a ; b ;")
        assert result.ok
        items = result.value
        assert len(items) == 2
        assert all(node.name == "Stmt" for node in items)

    def test_single_conditional_produces_choice(self):
        unit, result = parse_source("#ifdef A\nx ;\n#endif\ny ;")
        assert result.ok
        with_a = ast_project(result.value,
                             assignment_for(unit, {"A": "1"}))
        without = ast_project(result.value, assignment_for(unit, {}))
        assert len(with_a) == 2
        assert len(without) == 1

    def test_alternative_branches(self):
        unit, result = parse_source(
            "#ifdef A\nx ;\n#else\ny ;\n#endif")
        assert result.ok
        value = result.value
        # The whole unit differs per configuration: a static choice.
        assert isinstance(value, StaticChoice) or isinstance(value, tuple)
        with_a = ast_project(value, assignment_for(unit, {"A": "1"}))
        assert with_a[0].children[0].text == "x"

    def test_parse_error_reports_condition(self):
        _unit, result = parse_source("#ifdef A\n; ;\n#endif\nx ;")
        assert not result.ok
        assert result.failures
        failure = result.failures[0]
        assert "defined:A" in failure.condition.to_expr_string()
        # The feasible configuration still parsed.
        assert result.accepted

    def test_all_configurations_fail(self):
        _unit, result = parse_source("; broken ;")
        assert not result.ok
        assert not result.accepted

    def test_empty_input(self):
        g = Grammar("Unit")
        g.rule("Unit", [])
        g.rule("Unit", ["IDENT"])
        unit = preprocess("")
        parser = FMLRParser(generate(g), classify)
        result = parser.parse(unit.tree, unit.manager)
        assert result.ok

    def test_error_branch_not_parsed(self):
        source = "#ifdef BAD\n#error no\n#endif\nx ;"
        _unit, result = parse_source(source)
        assert result.ok  # BAD branch infeasible, not a failure


class TestTokenSharing:
    def test_paper_figure1_token_parsed_twice(self):
        """Line 10 of Figure 1b parses in two configurations but the
        result still covers both: conditions on the choice partition."""
        source = ("#ifdef P\nhead ;\n#endif\n"
                  "shared ;")
        unit, result = parse_source(source)
        assert result.ok
        both = ast_project(result.value,
                           assignment_for(unit, {"P": "1"}))
        one = ast_project(result.value, assignment_for(unit, {}))
        assert [n.children[0].text for n in both] == ["head", "shared"]
        assert [n.children[0].text for n in one] == ["shared"]


class TestOptimizationLevels:
    SOURCE = ("#ifdef C1\na ;\n#endif\n"
              "#ifdef C2\nb ;\n#endif\n"
              "#ifdef C3\nc ;\n#endif\n"
              "#ifdef C4\nd ;\n#endif\n"
              "tail ;")

    @pytest.mark.parametrize("level", list(OPTIMIZATION_LEVELS))
    def test_all_levels_agree(self, level):
        unit, baseline = parse_source(self.SOURCE)
        _unit2, result = parse_source(
            self.SOURCE, options=OPTIMIZATION_LEVELS[level])
        assert result.ok
        for config in ({}, {"C1": "1"}, {"C2": "1", "C4": "1"},
                       {"C1": "1", "C2": "1", "C3": "1", "C4": "1"}):
            expect = ast_project(baseline.value,
                                 assignment_for(unit, config))
            actual = ast_project(result.value,
                                 assignment_for(unit, config))
            assert ast_signature(expect) == ast_signature(actual), \
                (level, config)

    def test_optimized_fewer_subparsers_than_mapr(self):
        _u1, optimized = parse_source(self.SOURCE)
        _u2, mapr = parse_source(
            self.SOURCE, options=OPTIMIZATION_LEVELS["MAPR"])
        assert optimized.stats.max_subparsers <= \
            mapr.stats.max_subparsers

    def test_figure6_constant_subparsers(self):
        """18 conditional initializers, 2^18 configurations, but the
        optimized engine needs only a handful of subparsers."""
        lines = []
        for index in range(18):
            lines += [f"#ifdef CONFIG_{index}", f"check_{index} ;",
                      "#endif"]
        lines.append("nullend ;")
        source = "\n".join(lines)
        _unit, result = parse_source(source)
        assert result.ok
        assert result.stats.max_subparsers <= 6

    def test_figure6_mapr_explodes(self):
        lines = []
        for index in range(18):
            lines += [f"#ifdef CONFIG_{index}", f"check_{index} ;",
                      "#endif"]
        lines.append("nullend ;")
        source = "\n".join(lines)
        options = FMLROptions(follow_set=False, lazy_shifts=False,
                              shared_reduces=False, early_reduces=False,
                              choice_merging=False, kill_switch=500,
                              hard_kill_switch=True)
        with pytest.raises(SubparserExplosion):
            parse_source(source, options=options)

    def test_figure6_mapr_soft_kill_switch_degrades(self):
        """By default the kill switch is a budget: on trip the parse
        sheds low-priority forks, tags their configurations invalid,
        and still returns a partial result."""
        lines = []
        for index in range(18):
            lines += [f"#ifdef CONFIG_{index}", f"check_{index} ;",
                      "#endif"]
        lines.append("nullend ;")
        source = "\n".join(lines)
        options = FMLROptions(follow_set=False, lazy_shifts=False,
                              shared_reduces=False, early_reduces=False,
                              choice_merging=False, kill_switch=500)
        unit, result = parse_source(source, options=options)
        assert result.degraded
        assert not result.ok
        assert result.stats.kill_switch_trips >= 1
        assert result.stats.dropped_subparsers > 0
        assert result.diagnostics
        assert not result.invalid_configs.is_false()
        # The configurations NOT tagged invalid did parse.
        assert result.accepted

    def test_shared_reduce_counted(self):
        _unit, result = parse_source(self.SOURCE)
        assert result.stats.shared_reduce_count > 0 or \
            result.stats.max_subparsers <= 3

    def test_instrumentation_counts(self):
        _unit, result = parse_source(self.SOURCE)
        stats = result.stats
        assert stats.iterations == len(stats.subparser_counts)
        assert stats.max_subparsers == max(stats.subparser_counts)
        assert stats.merges > 0


class TestMerging:
    def test_subparsers_merge_after_conditional(self):
        # After the conditional, both configurations converge on the
        # same stack: exactly one subparser should continue.
        source = "#ifdef A\na ;\n#else\nb ;\n#endif\ntail1 ; tail2 ;"
        _unit, result = parse_source(source)
        assert result.ok
        assert result.stats.merges >= 1
        # After merging, the tail must not be parsed twice: total
        # iterations stay small.
        assert result.stats.max_subparsers <= 3

    def test_choice_node_at_complete_nonterminal(self):
        source = "#ifdef A\na ;\n#else\nb ;\n#endif\ntail ;"
        unit, result = parse_source(source)
        value = result.value
        # The merged list contains a choice between Stmt(a) and Stmt(b).
        found_choice = []

        def walk(node):
            if isinstance(node, StaticChoice):
                found_choice.append(node)
                for _c, branch in node.branches:
                    walk(branch)
            elif isinstance(node, Node):
                for child in node.children:
                    walk(child)
            elif isinstance(node, tuple):
                for child in node:
                    walk(child)

        walk(value)
        assert found_choice


class TestTracedPath:
    """Front-runner stretches keep the per-iteration hooks: one
    histogram sample per iteration, one event per fork and merge."""

    SOURCE = ("a ; b ; c ; d ; e ; f ;\n" + TestOptimizationLevels.SOURCE
              + "\ng ; h ; i ; j ;")

    def traced(self, source, options=None):
        unit = preprocess(source)
        tracer = Tracer()
        parser = FMLRParser(ident_list_grammar(), classify,
                            options=options, tracer=tracer)
        result = parser.parse(unit.tree, unit.manager,
                              unit.feasible_condition)
        return tracer, result

    @pytest.mark.parametrize("level", list(OPTIMIZATION_LEVELS))
    def test_hooks_match_stats(self, level):
        tracer, result = self.traced(self.SOURCE,
                                     OPTIMIZATION_LEVELS[level])
        stats = result.stats
        assert result.ok and stats.forks > 0
        # MAPR never merges differing parses (no choice nodes).
        assert stats.merges > 0 or not OPTIMIZATION_LEVELS[level] \
            .choice_merging
        samples = tracer.histograms["fmlr.subparsers"]
        assert len(samples) == stats.iterations
        assert samples == stats.subparser_counts
        forks = [e for e in tracer.events if e.name == "fork"]
        merges = [e for e in tracer.events if e.name == "merge"]
        assert sum(e.args["n"] for e in forks) == stats.forks
        assert len(merges) == stats.merges
        assert tracer.counters["fmlr.forks"] == stats.forks
        assert tracer.counters.get("fmlr.merges", 0) == stats.merges

    def test_traced_and_untraced_agree(self):
        _tracer, traced = self.traced(self.SOURCE)
        _unit, untraced = parse_source(self.SOURCE)
        assert traced.stats.as_counters() == untraced.stats.as_counters()
        assert traced.stats.subparser_counts == \
            untraced.stats.subparser_counts
        assert dag_ast_signature(traced.value) == \
            dag_ast_signature(untraced.value)


# ---------------------------------------------------------------------------
# golden equivalence: the engine reproduces a recorded run exactly
# ---------------------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fmlr_golden.json")
GOLDEN_KERNEL = dict(seed=2012, subsystems=1, drivers_per_subsystem=2,
                     figure6_entries=12)
GOLDEN_FIGURE6_ENTRIES = 8
# A conditional typedef: ``word_t`` is ambiguously a type name.
GOLDEN_TYPEDEFS = """#ifdef CONFIG_WIDE
typedef long word_t;
#else
int word_t;
#endif
int f(int p) { word_t * p; return (word_t) + p; }
"""
# Toy-grammar units with configuration-specific parse errors.
GOLDEN_TOY = ["#ifdef A\n; ;\n#endif\nx ;",
              "; broken ;",
              "#ifdef A\nx ;\n#else\ny ; ;\n#endif\n"
              "#if defined(B) && !defined(A)\nz\n#endif\ntail ;",
              TestOptimizationLevels.SOURCE]
EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "examples")


def _digest(*parts):
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:20]


def bdd_signature(condition, memo):
    """Exact structural digest of a BDD, memoised by its node id in the
    unit's one manager (a handle the walk has let go of may be
    recreated, so ``id()`` of a handle is not a stable key)."""
    key = ("bdd", condition._id)
    if key not in memo:
        if condition.is_terminal():
            memo[key] = "1" if condition.is_true() else "0"
        else:
            name = condition.manager.variable_names[condition.var]
            memo[key] = _digest(name,
                                bdd_signature(condition.low, memo),
                                bdd_signature(condition.high, memo))
    return memo[key]


def dag_ast_signature(value, memo=None):
    """Exact digest of an AST.  Choice nodes share subtrees, so the
    walk is memoised by object identity (a naive walk of a Figure 6
    AST is exponential)."""
    memo = {} if memo is None else memo
    key = id(value)
    if key in memo:
        return memo[key]
    if isinstance(value, Node):
        digest = _digest("N", value.name, *(dag_ast_signature(child, memo)
                                            for child in value.children))
    elif isinstance(value, StaticChoice):
        parts = ["C"]
        for condition, branch in value.branches:
            parts += [bdd_signature(condition, memo),
                      dag_ast_signature(branch, memo)]
        digest = _digest(*parts)
    elif isinstance(value, tuple):
        digest = _digest("L", *(dag_ast_signature(child, memo)
                                for child in value))
    elif isinstance(value, Token):
        digest = _digest("K", value.kind.name, value.text, value.file,
                         str(value.line), str(value.col))
    else:
        digest = _digest("V", repr(value))
    memo[key] = digest
    return digest


def run_lengths(counts):
    """``"value*run ..."``: subparser counts are mostly 1s."""
    return " ".join(f"{value}*{len(list(run))}"
                    for value, run in itertools.groupby(counts))


def fmlr_snapshot(parse):
    memo = {}
    return {
        "counters": parse.stats.as_counters(),
        "subparser_counts": run_lengths(parse.stats.subparser_counts),
        "failures": [str(failure) for failure in parse.failures],
        "invalid_configs": bdd_signature(parse.invalid_configs, memo),
        "ast": dag_ast_signature(parse.value, memo),
    }


def unit_snapshot(result):
    """``fmlr_snapshot`` plus the C symbol table's Table 3 counts."""
    snapshot = fmlr_snapshot(result.parse)
    snapshot["symbols"] = vars(result.symbol_stats)
    return snapshot


def golden_snapshots():
    """Per-unit FMLR outcomes over a small kernel corpus, the paper's
    Figure 1 example and the Figure 6 initializer at every
    optimization level."""
    from repro.corpus import KernelSpec, generate_kernel
    from repro.cpp import DictFileSystem
    from repro.superc import SuperC
    corpus = generate_kernel(KernelSpec(**GOLDEN_KERNEL))
    superc = SuperC(corpus.filesystem(),
                    include_paths=corpus.include_paths)
    kernel = {unit: unit_snapshot(superc.parse_file(unit))
              for unit in corpus.units}
    with open(os.path.join(EXAMPLES, "mousedev.c")) as handle:
        mousedev_source = handle.read()
    with open(os.path.join(EXAMPLES, "include", "major.h")) as handle:
        major = handle.read()
    mousedev = SuperC(DictFileSystem({"include/major.h": major}),
                      include_paths=["include"]) \
        .parse_source(mousedev_source, "mousedev.c")
    lines = ["static int (*check_part[])(struct parsed *) = {"]
    for index in range(GOLDEN_FIGURE6_ENTRIES):
        lines += [f"#ifdef CONFIG_ACORN_{index}",
                  f"  adfspart_check_{index},", "#endif"]
    lines += ["  ((void *)0)", "};"]
    figure6 = "\n".join(lines)
    levels = {level: unit_snapshot(SuperC(DictFileSystem({}),
                                          options=options)
                                   .parse_source(figure6, "figure6.c"))
              for level, options in OPTIMIZATION_LEVELS.items()}
    typedefs = SuperC(DictFileSystem({})) \
        .parse_source(GOLDEN_TYPEDEFS, "typedefs.c")
    toy = [fmlr_snapshot(parse_source(source)[1]) for source in GOLDEN_TOY]
    return {"kernel": kernel, "mousedev": unit_snapshot(mousedev),
            "figure6": levels, "typedefs": unit_snapshot(typedefs),
            "toy": toy}


def write_golden():
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden_snapshots(), handle, indent=1, sort_keys=True)
        handle.write("\n")


class TestGoldenEquivalence:
    """Counters, subparser counts, failures, invalid configurations and
    ASTs equal a recorded run of the engine.  Regenerate the fixture
    with ``PYTHONPATH=src python -m tests.test_fmlr`` only for an
    intended change of FMLR's behaviour."""

    @pytest.fixture(scope="class")
    def snapshots(self):
        return golden_snapshots()

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("section", ["kernel", "mousedev", "figure6",
                                         "typedefs", "toy"])
    def test_matches_recorded_run(self, snapshots, golden, section):
        assert snapshots[section] == golden[section]

    def test_fixture_exercises_fork_merge(self, golden):
        kernel = golden["kernel"].values()
        assert sum(unit["counters"]["fmlr.forks"] for unit in kernel) > 0
        assert sum(unit["counters"]["fmlr.merges"] for unit in kernel) > 0
        assert golden["typedefs"]["symbols"]["ambiguous_names"] > 0
        assert all(unit["failures"] for unit in golden["toy"][:3])
        mapr = golden["figure6"]["MAPR"]["counters"]
        assert mapr["fmlr.max_subparsers"] > 2 ** (
            GOLDEN_FIGURE6_ENTRIES - 2)


class TestCarriedConditions:
    """The two invariants behind a subparser's carried condition, on
    the golden corpora (the small kernel, ``mousedev.c`` and Figure 6
    at every optimization level): a stepped subparser's condition is
    the disjunction of its heads' conditions, and ``follow_set(c, e)``
    partitions ``c``."""

    def test_invariants_hold_on_golden_corpora(self, monkeypatch):
        step, follow = FMLRParser._step, fmlr.follow_set
        seen = {"steps": 0, "carried": 0, "follow_sets": 0}

        def checked_step(self, subparser, manager, *rest):
            expected = manager.disjoin(cond for cond, _ in subparser.heads)
            seen["steps"] += 1
            seen["carried"] += subparser.cond is not None
            successors = step(self, subparser, manager, *rest)
            # After the step, so checking does not fill in a condition
            # the run would have left to compute lazily.
            assert subparser.condition(manager) is expected
            return successors

        def checked_follow_set(condition, element, manager):
            pairs = follow(condition, element, manager)
            seen["follow_sets"] += 1
            assert manager.disjoin(cond for cond, _ in pairs) is condition
            return pairs

        def checked_run_lead(self, subparser, limit, manager, *rest):
            successors = run_lead(self, subparser, limit, manager, *rest)
            # A condition carried by a subparser the front-runner loop
            # hands back is exactly the disjunction of its heads'.  Only
            # forks from Figure 7b's partition may leave it to be
            # computed lazily.
            for successor in successors:
                seen["handed_back"] += 1
                if successor.cond is not None:
                    seen["handed_back_carried"] += 1
                    assert successor.cond is manager.disjoin(
                        cond for cond, _ in successor.heads)
            return successors

        run_lead = FMLRParser._run_lead
        seen.update(handed_back=0, handed_back_carried=0)
        monkeypatch.setattr(FMLRParser, "_step", checked_step)
        monkeypatch.setattr(FMLRParser, "_run_lead", checked_run_lead)
        monkeypatch.setattr(fmlr, "follow_set", checked_follow_set)
        snapshots = golden_snapshots()
        with open(GOLDEN_PATH) as handle:
            assert snapshots == json.load(handle)
        assert seen["follow_sets"] > 0
        # Nearly every subparser is made where its condition is at hand.
        assert seen["carried"] > 0.9 * seen["steps"]
        assert seen["handed_back_carried"] > 0.9 * seen["handed_back"]


class TestFrontRunner:
    """A subparser strictly ahead of every queued one is stepped without
    an insert; the stretch ends at the queue head's position."""

    # Reduced from the seed-2012 golden kernel (``input_drv1.c``): the
    # ``CONFIG_A`` subparser finishes ``if (a)`` tied with the queued
    # one at ``i``.  A loop that kept reducing at the tie, instead of
    # inserting, merged the two later and took 109 iterations.
    TIE = ("int f(void)\n{\n#ifdef CONFIG_A\n    if (a)\n#endif\n"
           "    i = b;\n}\n")

    def test_tie_with_queue_head_goes_through_insert(self):
        from repro.cpp import DictFileSystem
        from repro.superc import SuperC
        result = SuperC(DictFileSystem({})).parse_source(self.TIE, "tie.c")
        snapshot = fmlr_snapshot(result.parse)
        # The run through the priority queue for every step.
        assert snapshot["counters"]["fmlr.merges"] == 1
        assert snapshot["counters"]["fmlr.iterations"] == 108
        assert snapshot["subparser_counts"] == "1*20 2*80 1*8"
        assert snapshot["ast"] == "3b80a962ce2ef97681e6"

    # The ``C`` configurations fail first; then the ``A`` subparser runs
    # ahead of the queued ``!A`` one through forty items.
    AHEAD = "#ifdef C\n; ;\n#endif\nx ;\n#ifdef A\n" + "a ; " * 40 + \
        "\n#endif\ntail ;"

    def parse_ahead(self, **kwargs):
        unit = preprocess(self.AHEAD)
        parser = FMLRParser(ident_list_grammar(), classify, **kwargs)
        return parser.parse(unit.tree, unit.manager,
                            unit.feasible_condition)

    def test_bdd_budget_trips_while_front_runner_steps(self):
        result = self.parse_ahead(budget=ResourceBudget(max_bdd_nodes=1))
        stats = result.stats
        # Tested every 64 iterations: the first test falls in the stretch.
        assert stats.iterations == 64 and stats.forks == 1
        assert run_lengths(stats.subparser_counts) == "1*5 2*59"
        (failure,), (diagnostic,) = result.failures, result.diagnostics
        assert diagnostic.phase == PHASE_RESOURCE
        # The front-runner's configurations and the queued one's: every
        # configuration not already rejected.
        assert diagnostic.condition is ~failure.condition
        assert not result.accepted

    def test_soft_kill_switch_trips_while_front_runner_steps(self):
        result = self.parse_ahead(options=FMLROptions(kill_switch=1))
        stats = result.stats
        assert stats.kill_switch_trips == 1
        assert stats.dropped_subparsers == 1
        # The stretch's first step sees two live subparsers and drops
        # the queued one; the front-runner parses on alone.
        assert run_lengths(stats.subparser_counts) == "1*5 2*1 1*164"
        (failure,), (diagnostic,) = result.failures, result.diagnostics
        ((accepted, _value),) = result.accepted
        assert diagnostic.phase == PHASE_PARSE
        assert diagnostic.condition is ~(failure.condition | accepted)


# ---------------------------------------------------------------------------
# the reduce plan: unit passthroughs and one classification per lookahead
# ---------------------------------------------------------------------------

OBSERVED_BY_C = {"ScopePush", "ScopePop", "Declaration"}


def unit_chain_grammar():
    """Unit passthrough chains over a token (``Term -> IDENT``) and over
    a layout child (``Skip -> Pad``)."""
    g = Grammar("Unit")
    g.rule("Unit", ["Items"], build=Build.PASSTHROUGH)
    g.rule("Items", ["Items", "Item"], build=Build.LIST)
    g.rule("Items", ["Item"], build=Build.LIST)
    g.rule("Item", ["Expr", ";"], node_name="Stmt")
    g.rule("Item", ["Skip", ";"], node_name="Empty")
    g.rule("Expr", ["Term"], build=Build.PASSTHROUGH)
    g.rule("Term", ["IDENT"], build=Build.PASSTHROUGH)
    g.rule("Skip", ["Pad"], build=Build.PASSTHROUGH)
    g.rule("Pad", ["~"], build=Build.LAYOUT)
    g.mark_complete("Item", "Items", "Unit")
    return generate(g)


def parse_with(engine, source, tables, context_factory=ParserContext):
    """The value of an unconditional ``source`` parsed by FMLR or by the
    plain LR engine, with one context from ``context_factory``."""
    if engine == "lr":
        parser = LRParser(tables, classify, context_factory=context_factory)
        return parser.parse(simple_preprocess(source))
    unit = preprocess(source)
    result = FMLRParser(tables, classify,
                        context_factory=context_factory).parse(
        unit.tree, unit.manager, unit.feasible_condition)
    assert not result.failures
    return result.value


class Recording(ParserContext):
    """Overrides ``on_reduce`` and declares nothing: sees every
    reduction."""

    def __init__(self):
        self.seen = []

    def on_reduce(self, production, value, condition):
        self.seen.append(production.lhs)


class ItemsOnly(Recording):
    observed_reductions = frozenset(["Item"])


ENGINES = ["fmlr", "lr"]


class TestReducePlan:
    """Both LR engines reduce through ``Tables.reduce_plan``: a unit
    passthrough re-pushes its child's value without ``build_value``,
    ``on_reduce`` runs only for the reductions a context observes, and
    FMLR reuses a lookahead's classification until a shift, a new
    subparser or an observed reduction."""

    def test_plan_is_lazy_and_stays_out_of_the_blob(self):
        from repro.parser.lalr import from_blob, to_blob
        tables = unit_chain_grammar()
        assert "reduce_plan" not in vars(tables)
        plan = tables.reduce_plan
        assert tables.reduce_plan is plan
        units = {entry[0] for entry in plan if entry[2]}
        assert units == {"Unit", "Expr", "Term", "Skip"}
        assert all(entry[1] == len(entry[3].rhs) for entry in plan)
        assert "reduce_plan" not in vars(from_blob(to_blob(tables)))

    def test_observed_reductions_declarations(self):
        from repro.cgrammar import CContext
        assert ParserContext.observed_reductions == frozenset()
        assert Recording.observed_reductions is None
        assert ItemsOnly.observed_reductions == {"Item"}
        assert CContext.observed_reductions == OBSERVED_BY_C

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undeclared_plugin_sees_every_reduction(self, engine):
        seen = {}
        for kind in (Recording, ItemsOnly):
            context = kind()
            parse_with(engine, "x ; ~ ;", unit_chain_grammar(),
                       lambda: context)
            seen[kind] = context.seen
        assert seen[Recording] == ["Term", "Expr", "Item", "Items", "Pad",
                                   "Skip", "Item", "Items", "Unit"]
        assert seen[ItemsOnly] == ["Item", "Item"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unit_passthrough_over_layout_child(self, engine):
        value = parse_with(engine, "x ; ~ ;", unit_chain_grammar())
        stmt, empty = value
        assert stmt.name == "Stmt" and stmt.children[0].text == "x"
        assert empty == Node("Empty", (Node("Skip", ()),
                                       empty.children[1]))
        assert empty.children[1].text == ";"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_missing_goto_on_the_fast_path(self, engine):
        tables = unit_chain_grammar()
        for row in tables.goto:
            row.pop("Expr", None)
        if engine == "lr":
            with pytest.raises(ParseError, match="no goto for 'Expr'"):
                parse_with(engine, "x ;", tables)
        else:
            unit = preprocess("x ;")
            result = FMLRParser(tables, classify).parse(
                unit.tree, unit.manager, unit.feasible_condition)
            assert not result.accepted and not result.ok

    @staticmethod
    def c_parse(engine, source, monkeypatch, defines=None):
        """Parse C ``source``; return the symbol stats and each token's
        classifications in call order, by text and line."""
        from repro.bdd import BDDManager
        from repro.cgrammar import (CContext, SymbolStats, c_tables,
                                    classify as c_classify,
                                    make_context_factory)
        from repro.cpp import DictFileSystem
        from repro.superc import SuperC
        seen = {}
        reclassify = CContext.reclassify

        def recording(self, token, terminal, condition):
            classes = reclassify(self, token, terminal, condition)
            seen.setdefault((token.text, token.line), []).append(
                sorted(name for _cond, name in classes))
            return classes

        monkeypatch.setattr(CContext, "reclassify", recording)
        if engine == "lr":
            stats = SymbolStats()
            manager = BDDManager()
            parser = LRParser(c_tables(), c_classify,
                              context_factory=make_context_factory(
                                  manager, stats),
                              condition=manager.true)
            parser.parse(simple_preprocess(source, defines))
        else:
            result = SuperC(DictFileSystem({})).parse_source(source, "t.c")
            assert result.parse.ok
            stats = result.symbol_stats
        return stats, seen

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lexer_hack_after_declaration_reduce(self, engine,
                                                 monkeypatch):
        from repro.cgrammar import IDENTIFIER, TYPEDEF_NAME
        stats, seen = self.c_parse(engine, "typedef int T;\nT x;\n",
                                   monkeypatch)
        assert stats.typedef_names == 1
        # The second ``T`` is the lookahead of the ``Declaration``
        # reduce: classified an identifier before it, a typedef name
        # after it registers ``T``.
        second = seen[("T", 2)]
        assert second[0] == [IDENTIFIER]
        assert second[-1] == [TYPEDEF_NAME]
        if engine == "fmlr":
            assert second == [[IDENTIFIER], [TYPEDEF_NAME]]

    def test_ambiguous_typedef_keeps_its_counts(self, monkeypatch):
        from repro.cgrammar import IDENTIFIER, TYPEDEF_NAME
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)["typedefs"]["symbols"]
        stats, seen = self.c_parse("fmlr", GOLDEN_TYPEDEFS, monkeypatch)
        assert vars(stats) == golden
        # Each use of ``word_t`` in the body is classified ambiguously
        # once, then once per branch of Figure 7b's partition.
        uses = seen[("word_t", 6)]
        ambiguous = [classes for classes in uses if len(classes) == 2]
        assert ambiguous == [[IDENTIFIER, TYPEDEF_NAME]] * \
            golden["ambiguous_names"]

    @pytest.mark.parametrize("wide", [True, False])
    def test_typedef_configurations_on_plain_lr(self, wide, monkeypatch):
        """The oracle's engine, one configuration of ``GOLDEN_TYPEDEFS``
        at a time: ``word_t`` is never ambiguous there."""
        from repro.cgrammar import IDENTIFIER, TYPEDEF_NAME
        defines = {"CONFIG_WIDE": "1"} if wide else None
        stats, seen = self.c_parse("lr", GOLDEN_TYPEDEFS, monkeypatch,
                                   defines)
        assert (stats.typedef_names, stats.ambiguous_names) == \
            (int(wide), 0)
        body = {name for classes in seen[("word_t", 6)] for name in classes}
        assert body == {TYPEDEF_NAME if wide else IDENTIFIER}

    def test_count_gate_on_golden_kernel(self, monkeypatch):
        """No timing: on the golden kernel, FMLR classifies at most one
        action lookup in two, and ``CContext.on_reduce`` runs only for
        the reductions it observes."""
        from repro.cgrammar import CContext
        from repro.corpus import KernelSpec, generate_kernel
        from repro.superc import SuperC
        reclassify, on_reduce = CContext.reclassify, CContext.on_reduce
        calls = {"reclassify": 0}
        reduced = []

        def counted_reclassify(self, *args):
            calls["reclassify"] += 1
            return reclassify(self, *args)

        def recorded_on_reduce(self, production, value, condition):
            reduced.append(production.lhs)
            return on_reduce(self, production, value, condition)

        monkeypatch.setattr(CContext, "reclassify", counted_reclassify)
        monkeypatch.setattr(CContext, "on_reduce", recorded_on_reduce)
        corpus = generate_kernel(KernelSpec(**GOLDEN_KERNEL))
        superc = SuperC(corpus.filesystem(),
                        include_paths=corpus.include_paths)
        lookups = sum(superc.parse_file(unit).parse.stats.action_lookups
                      for unit in corpus.units)
        assert calls["reclassify"] <= 0.5 * lookups
        assert set(reduced) == OBSERVED_BY_C


if __name__ == "__main__":
    write_golden()
