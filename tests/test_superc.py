"""End-to-end SuperC tests: the full pipeline on variability-rich C.

Includes the paper's running examples (Figure 1's mousedev excerpt,
Figure 6's initializer) and the parse-level projection oracle: for each
configuration, the FMLR AST projected onto it equals the plain-LR
parse of the projected token stream.
"""

import gc
import itertools

import pytest

from repro.bdd import BDDManager
from repro.cgrammar import c_tables, classify, make_context_factory
from repro.cpp import DictFileSystem, project as project_tree
from repro.parser import LRParser, StaticChoice
from repro.parser.ast import iter_tokens, project as ast_project
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.superc import SuperC, parse_c
from tests.support import assignment_for, ast_signature


def plain_parse(tokens):
    manager = BDDManager()
    factory = make_context_factory(manager)
    parser = LRParser(c_tables(), classify, context_factory=factory,
                      condition=manager.true)
    return parser.parse(tokens)


def check_against_plain_lr(source, files=None, variables=(),
                           values=("1",)):
    """The parse-level projection oracle."""
    result = parse_c(source, files=files)
    assert result.ok, [str(f) for f in result.failures]
    unit = result.unit
    for present in itertools.product([False, True],
                                     repeat=len(variables)):
        config = {name: values[0]
                  for name, here in zip(variables, present) if here}
        assignment = assignment_for(unit, config)
        if not unit.feasible_condition.evaluate(assignment):
            continue
        tokens = project_tree(unit.tree, assignment)
        expected = plain_parse(tokens)
        actual = ast_project(result.ast, assignment)
        assert ast_signature(expected) == ast_signature(actual), config
    return result


class TestFigure1:
    SOURCE = (
        '#include "major.h"\n'
        "#define MOUSEDEV_MIX 31\n"
        "#define MOUSEDEV_MINOR_BASE 32\n"
        "static int mousedev_open(struct inode *inode,"
        " struct file *file)\n"
        "{\n"
        "  int i;\n"
        "#ifdef CONFIG_INPUT_MOUSEDEV_PSAUX\n"
        "  if (imajor(inode) == MISC_MAJOR)\n"
        "    i = MOUSEDEV_MIX;\n"
        "  else\n"
        "#endif\n"
        "  i = iminor(inode) - MOUSEDEV_MINOR_BASE;\n"
        "  return 0;\n"
        "}\n")
    FILES = {"include/major.h": "#define MISC_MAJOR 10\n"}

    def test_parses_both_configurations(self):
        result = check_against_plain_lr(
            self.SOURCE, files=self.FILES,
            variables=["CONFIG_INPUT_MOUSEDEV_PSAUX"])
        # The AST contains a static choice for the conditional.
        found = []

        def walk(v):
            if isinstance(v, StaticChoice):
                found.append(v)
                for _c, b in v.branches:
                    walk(b)
            elif hasattr(v, "children"):
                for c in v.children:
                    walk(c)
            elif isinstance(v, tuple):
                for c in v:
                    walk(c)

        walk(result.ast)
        assert found

    def test_shared_token_both_branches(self):
        """Figure 1b line 10 is parsed twice: once inside the if-else,
        once as a standalone statement — both configurations contain
        the shared assignment."""
        result = parse_c(self.SOURCE, files=self.FILES)
        unit = result.unit
        for config in ({}, {"CONFIG_INPUT_MOUSEDEV_PSAUX": "1"}):
            projected = ast_project(result.ast,
                                    assignment_for(unit, config))
            texts = [t.text for t in iter_tokens(projected)]
            assert "iminor" in texts


class TestFigure6:
    @staticmethod
    def source(n=18):
        lines = ["static int (*check_part[])(struct parsed *) = {"]
        for index in range(n):
            lines += [f"#ifdef CONFIG_ACORN_{index}",
                      f"  adfspart_check_{index},",
                      "#endif"]
        lines += ["  ((void *)0)", "};"]
        return "\n".join(lines)

    def test_exponential_configs_constant_subparsers(self):
        result = parse_c(self.source())
        assert result.ok, [str(f) for f in result.failures]
        # 2^18 configurations, only a handful of subparsers (the paper
        # reports 2 for this example; allow a little slack for the
        # engine's fork-then-act stepping).
        assert result.parse.stats.max_subparsers <= 8

    def test_projection_sample(self):
        result = parse_c(self.source(6))
        unit = result.unit
        for config in ({}, {"CONFIG_ACORN_0": "1"},
                       {"CONFIG_ACORN_2": "1", "CONFIG_ACORN_5": "1"}):
            assignment = assignment_for(unit, config)
            projected = ast_project(result.ast, assignment)
            texts = [t.text for t in iter_tokens(projected)]
            for index in range(6):
                name = f"adfspart_check_{index}"
                if f"CONFIG_ACORN_{index}" in config:
                    assert name in texts
                else:
                    assert name not in texts

    def test_mapr_needs_exponentially_more(self):
        optimized = parse_c(self.source(8))
        mapr = parse_c(self.source(8),
                       options=OPTIMIZATION_LEVELS["MAPR"])
        assert mapr.ok
        assert mapr.parse.stats.max_subparsers >= \
            4 * optimized.parse.stats.max_subparsers


class TestConditionalTypedefs:
    def test_conditionally_defined_typedef_forks(self):
        """An ambiguously defined name makes reclassify fork an extra
        subparser on an implicit conditional (no explicit #ifdef at the
        use site)."""
        source = ("#ifdef CONFIG_WIDE\n"
                  "typedef long T;\n"
                  "#endif\n"
                  "int T;\n")
        # Under CONFIG_WIDE this is `int T;` redeclaring a typedef as a
        # variable — legal C (different declaration), and under !WIDE a
        # plain variable.  Either way it must parse, and the ambiguous
        # name statistic must record the fork.
        result = parse_c(source)
        assert result.ok or result.parse.accepted

    def test_typedef_under_both_branches(self):
        source = ("#ifdef CONFIG_64\n"
                  "typedef unsigned long word;\n"
                  "#else\n"
                  "typedef unsigned int word;\n"
                  "#endif\n"
                  "word w;\n"
                  "word f(word x) { return x + 1; }\n")
        check_against_plain_lr(source, variables=["CONFIG_64"])

    def test_conditional_struct_layout(self):
        source = ("struct dev {\n"
                  "  int id;\n"
                  "#ifdef CONFIG_DEBUG\n"
                  "  const char *label;\n"
                  "#endif\n"
                  "  long flags;\n"
                  "};\n")
        check_against_plain_lr(source, variables=["CONFIG_DEBUG"])


class TestRealisticUnits:
    def test_conditional_function_body(self):
        source = ("int init(void)\n"
                  "{\n"
                  "#ifdef CONFIG_SMP\n"
                  "  int cpus = 8;\n"
                  "  return cpus;\n"
                  "#else\n"
                  "  return 1;\n"
                  "#endif\n"
                  "}\n")
        check_against_plain_lr(source, variables=["CONFIG_SMP"])

    def test_conditional_parameters(self):
        source = ("int probe(struct device *dev\n"
                  "#ifdef CONFIG_PM\n"
                  "  , int pm_state\n"
                  "#endif\n"
                  ");\n")
        check_against_plain_lr(source, variables=["CONFIG_PM"])

    def test_conditional_else_if_chain(self):
        source = ("int pick(int x)\n"
                  "{\n"
                  "  if (x == 0) return 0;\n"
                  "#ifdef CONFIG_A\n"
                  "  else if (x == 1) return 1;\n"
                  "#endif\n"
                  "  else return 2;\n"
                  "}\n")
        check_against_plain_lr(source, variables=["CONFIG_A"])

    def test_macro_driven_variability(self):
        source = ("#ifdef CONFIG_64BIT\n"
                  "#define BITS_PER_LONG 64\n"
                  "#else\n"
                  "#define BITS_PER_LONG 32\n"
                  "#endif\n"
                  "int width = BITS_PER_LONG;\n"
                  "#if BITS_PER_LONG == 64\n"
                  "typedef unsigned long uptr;\n"
                  "#else\n"
                  "typedef unsigned int uptr;\n"
                  "#endif\n"
                  "uptr mask = (uptr)~0;\n")
        check_against_plain_lr(source, variables=["CONFIG_64BIT"])

    def test_multiple_independent_conditionals(self):
        source = ("#ifdef CONFIG_A\nint a;\n#endif\n"
                  "#ifdef CONFIG_B\nint b;\n#endif\n"
                  "#ifdef CONFIG_C\nint c;\n#endif\n"
                  "int tail;\n")
        result = check_against_plain_lr(
            source, variables=["CONFIG_A", "CONFIG_B", "CONFIG_C"])
        assert result.parse.stats.max_subparsers <= 6

    def test_error_branch_excluded_from_parsing(self):
        source = ("#ifdef CONFIG_BROKEN\n"
                  "#error not supported\n"
                  "this is ! not @ C\n"
                  "#endif\n"
                  "int fine;\n")
        result = parse_c(source)
        assert result.ok

    def test_parse_failure_reports_condition(self):
        source = ("#ifdef CONFIG_BAD\n"
                  "int broken = ;\n"
                  "#endif\n"
                  "int fine;\n")
        result = parse_c(source)
        assert not result.ok
        assert result.parse.accepted  # the feasible config parsed
        assert any("CONFIG_BAD" in str(f) for f in result.failures)

    def test_timing_breakdown_present(self):
        result = parse_c("int x;\n")
        timing = result.timing
        assert timing.lex >= 0
        assert timing.preprocess >= 0
        assert timing.parse > 0
        assert timing.total >= timing.parse


class TestSuperCFileAPI:
    def test_parse_file(self):
        fs = DictFileSystem({
            "src/main.c": '#include "util.h"\nint main(void) '
                          '{ return util(); }\n',
            "src/util.h": "int util(void);\n",
        })
        superc = SuperC(fs)
        result = superc.parse_file("src/main.c")
        assert result.ok

    def test_missing_file(self):
        superc = SuperC(DictFileSystem({}))
        with pytest.raises(FileNotFoundError):
            superc.parse_file("nope.c")

    def test_dropped_result_freed_without_cycle_collector(self):
        """A parsed unit's token stream and preprocessor die with its
        result by reference counting: neither sits in a reference cycle
        that only the cycle collector could free."""
        from repro.cpp.preprocessor import Preprocessor
        from repro.parser.stream import TokenNode
        fs = DictFileSystem({
            "src/main.c": '#include "util.h"\n'
                          "#ifdef CONFIG_A\nint a;\n#else\nlong a;\n"
                          "#endif\nint main(void) { return TWICE(a); }\n",
            "src/util.h": "#define TWICE(x) ((x) + (x))\n",
        })
        superc = SuperC(fs)
        superc.parse_file("src/main.c")  # warm the grammar tables

        def survivors():
            objects = gc.get_objects()
            return (sum(isinstance(o, TokenNode) for o in objects),
                    sum(isinstance(o, Preprocessor) for o in objects))

        gc.collect()
        before = survivors()
        gc.disable()
        try:
            result = superc.parse_file("src/main.c")
            assert result.ok
            del result
            assert survivors() == before
        finally:
            gc.enable()

    def test_all_optimization_levels_parse_figure6(self):
        source = TestFigure6.source(6)
        baseline = parse_c(source)
        base_unit = baseline.unit
        for level, options in OPTIMIZATION_LEVELS.items():
            result = parse_c(source, options=options)
            assert result.ok, level
            for config in ({}, {"CONFIG_ACORN_1": "1"}):
                expected = ast_project(
                    baseline.ast, assignment_for(base_unit, config))
                actual = ast_project(
                    result.ast, assignment_for(result.unit, config))
                assert ast_signature(expected) == \
                    ast_signature(actual), (level, config)


class TestConstructorInjection:
    """Prebuilt tables / context-factory makers via the constructor
    (the batch engine builds many SuperC instances cheaply)."""

    SOURCE = ("#ifdef CONFIG_SMP\nint nr_cpus = 8;\n#else\n"
              "int nr_cpus = 1;\n#endif\n")

    def test_injected_tables_used(self):
        from repro.parser.lalr import from_blob, to_blob
        clone = from_blob(to_blob(c_tables()))
        superc = SuperC(DictFileSystem({}), tables=clone)
        assert superc.tables is clone
        result = superc.parse_source(self.SOURCE)
        assert result.ok
        baseline = SuperC(DictFileSystem({})).parse_source(self.SOURCE)
        assert ast_signature(result.ast) == ast_signature(baseline.ast)

    def test_injected_context_factory_maker(self):
        calls = []

        def maker(manager, stats=None):
            calls.append(manager)
            return make_context_factory(manager, stats)

        superc = SuperC(DictFileSystem({}),
                        context_factory_maker=maker)
        result = superc.parse_source(self.SOURCE)
        assert result.ok
        assert len(calls) == 1

    def test_shared_tables_across_instances(self):
        tables = c_tables()
        instances = [SuperC(DictFileSystem({}), tables=tables)
                     for _ in range(3)]
        assert all(s.tables is tables for s in instances)
