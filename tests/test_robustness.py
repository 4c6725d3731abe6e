"""Fault-injection and graceful-degradation tests.

The robustness contract (configuration-scoped error confinement):

* a preprocessor failure under a non-TRUE presence condition is
  recorded and pruned — the pipeline keeps going and the failing
  configurations join ``invalid_configs``;
* a failure under the TRUE condition (every configuration affected)
  stays a hard error;
* the parser degrades instead of dying: the kill switch sheds forks,
  resource budgets trip into partial results, and ``SuperCResult``
  reports ``status == "degraded"`` with condition-scoped diagnostics;
* the batch scheduler paces retries deterministically and abandons
  crash-looping units instead of retrying forever.
"""

import os

import pytest

from repro.cpp import DictFileSystem, PreprocessorError
from repro.cpp.conditions import defined_var
from repro.engine import (BatchEngine, CorpusJob, EngineConfig,
                          STATUS_CRASHED)
from repro.engine import scheduler
from repro.engine.scheduler import backoff_delay
from repro.errors import (Diagnostic, PHASE_CONDITION, PHASE_EXPANSION,
                          PHASE_INCLUDE, PHASE_LEX, PHASE_PARSE,
                          PHASE_RESOURCE, ResourceBudget,
                          SEVERITY_CONFIG, serialize_diagnostics)
from repro.parser.fmlr import (FMLROptions, OPTIMIZATION_LEVELS,
                               SubparserExplosion)
from repro.qa import DifferentialChecker
from repro.serve import client, pool
from repro.serve.client import SocketTransport
from repro.serve.pool import PoolConfig, WorkerPool
from repro.superc import (STATUS_DEGRADED, STATUS_OK,
                          STATUS_PARSE_FAILED, SuperC)

BUILTINS = {"__STDC__": "1"}


def parse(text, files=None, include_paths=("include",), budget=None,
          options=None):
    superc = SuperC(DictFileSystem(files or {}),
                    include_paths=include_paths, builtins=BUILTINS,
                    budget=budget, options=options)
    return superc.parse_source(text, "unit.c")


def defined(manager, name):
    return manager.var(defined_var(name))


# ---------------------------------------------------------------------------
# the acceptance unit: three distinct guarded failure classes, one AST
# ---------------------------------------------------------------------------

ACCEPTANCE_SOURCE = """\
#ifdef CONFIG_NET
#include "no_such_header.h"
#endif

#ifdef CONFIG_USB
#if (
int usb_never;
#endif
#endif

#ifdef CONFIG_SND
#error "sound is unsupported in this tree"
#endif

#ifdef CONFIG_SMP
int nr_cpus = 8;
#else
int nr_cpus = 1;
#endif

#ifdef CONFIG_DEBUG
int verbose = 1;
#endif

int always_here(void)
{
    return nr_cpus;
}
"""


class TestAcceptanceUnit:
    def test_single_ast_with_exactly_three_error_conditions(self):
        result = parse(ACCEPTANCE_SOURCE)
        # One AST despite three distinct guarded failures.
        assert result.ast is not None
        assert result.parse.accepted
        assert result.status == STATUS_DEGRADED
        manager = result.unit.manager
        expected = (defined(manager, "CONFIG_NET")
                    | defined(manager, "CONFIG_USB")
                    | defined(manager, "CONFIG_SND"))
        assert result.invalid_configs.equiv(expected).is_true()
        # One diagnostic per failure class, each correctly phased.
        phases = sorted(d.phase for d in result.unit.diagnostics)
        assert phases == [PHASE_CONDITION, PHASE_INCLUDE, "preprocess"]
        assert all(d.severity == SEVERITY_CONFIG
                   for d in result.unit.diagnostics)

    def test_error_agreement_with_oracle_over_16_configs(self):
        checker = DifferentialChecker(files={}, include_paths=(),
                                      max_configs=20)
        outcome = checker.check_source(ACCEPTANCE_SOURCE,
                                       "acceptance.c", seed=3)
        assert outcome.configs_checked >= 16
        assert outcome.disagreements == []
        assert outcome.superc_status == STATUS_DEGRADED

    def test_diagnostics_serialize(self):
        result = parse(ACCEPTANCE_SOURCE)
        records = serialize_diagnostics(result.diagnostics)
        assert len(records) == 3
        for record in records:
            assert set(record) == {"condition", "severity", "phase",
                                   "message", "origin"}
            assert record["severity"] == SEVERITY_CONFIG


# ---------------------------------------------------------------------------
# per-error-class confinement regressions
# ---------------------------------------------------------------------------

class TestConfinementByClass:
    def assert_confined(self, result, variable):
        manager = result.unit.manager
        assert result.status == STATUS_DEGRADED
        assert result.parse.accepted
        assert result.invalid_configs.equiv(
            defined(manager, variable)).is_true()

    def test_bad_if_expression(self):
        result = parse("#ifdef CONFIG_A\n#if 1 +\nint x;\n#endif\n"
                       "#endif\nint y;\n")
        self.assert_confined(result, "CONFIG_A")
        assert result.unit.diagnostics[0].phase == PHASE_CONDITION

    def test_bad_if_expression_at_true_is_fatal(self):
        with pytest.raises(PreprocessorError):
            parse("#if 1 +\nint x;\n#endif\nint y;\n")

    def test_division_by_zero_in_guarded_if(self):
        result = parse("#ifdef CONFIG_A\n#if 8 / 0\nint x;\n#endif\n"
                       "#endif\nint y;\n")
        self.assert_confined(result, "CONFIG_A")

    def test_missing_include(self):
        result = parse('#ifdef CONFIG_A\n#include "gone.h"\n#endif\n'
                       "int y;\n")
        self.assert_confined(result, "CONFIG_A")
        assert result.unit.diagnostics[0].phase == PHASE_INCLUDE

    def test_missing_include_at_true_is_fatal(self):
        with pytest.raises(PreprocessorError):
            parse('#include "gone.h"\nint y;\n')

    def test_computed_include_per_branch(self):
        files = {"include/real.h": "int from_real;\n"}
        result = parse("#ifdef CONFIG_A\n"
                       '#define HDR "phantom.h"\n'
                       "#else\n"
                       '#define HDR <real.h>\n'
                       "#endif\n"
                       "#include HDR\n"
                       "int y;\n", files=files)
        # Only the CONFIG_A branch's include fails; the other branch's
        # header is processed.
        self.assert_confined(result, "CONFIG_A")

    def test_malformed_ifdef(self):
        result = parse("#ifdef CONFIG_A\n#ifdef\nint x;\n#endif\n"
                       "#endif\nint y;\n")
        self.assert_confined(result, "CONFIG_A")

    def test_malformed_define(self):
        result = parse("#ifdef CONFIG_A\n#define\n#endif\nint y;\n")
        self.assert_confined(result, "CONFIG_A")

    def test_malformed_undef(self):
        result = parse("#ifdef CONFIG_A\n#undef\n#endif\nint y;\n")
        self.assert_confined(result, "CONFIG_A")

    def test_macro_arity_error_in_guarded_branch(self):
        result = parse("#define TWO(a, b) ((a) + (b))\n"
                       "#ifdef CONFIG_A\n"
                       "int bad = TWO(1);\n"
                       "#else\n"
                       "int good = 0;\n"
                       "#endif\n")
        manager = result.unit.manager
        assert result.status == STATUS_DEGRADED
        assert any(d.phase == PHASE_EXPANSION
                   for d in result.unit.diagnostics)
        assert not result.invalid_configs.is_false()
        assert (result.invalid_configs
                & ~defined(manager, "CONFIG_A")).is_false()

    def test_macro_arity_error_at_true_is_fatal(self):
        with pytest.raises(PreprocessorError):
            parse("#define TWO(a, b) ((a) + (b))\nint bad = TWO(1);\n")

    def test_bad_token_paste_in_guarded_branch(self):
        result = parse("#define CAT(a, b) a ## b\n"
                       "#ifdef CONFIG_A\n"
                       "int bad = CAT(1, ==);\n"
                       "#else\n"
                       "int good = 0;\n"
                       "#endif\n")
        assert result.status == STATUS_DEGRADED
        assert any(d.phase == PHASE_EXPANSION
                   for d in result.unit.diagnostics)

    def test_include_cycle_under_condition(self):
        files = {"include/loop.h": '#include "loop.h"\n'}
        result = parse('#ifdef CONFIG_A\n#include "loop.h"\n#endif\n'
                       "int y;\n", files=files,
                       budget=ResourceBudget(max_include_depth=8))
        self.assert_confined(result, "CONFIG_A")
        assert any("include depth" in d.message
                   for d in result.unit.diagnostics)

    def test_deep_include_chain_under_condition(self):
        files = {f"include/d{i}.h": f'#include "d{i + 1}.h"\n'
                 for i in range(10)}
        files["include/d10.h"] = "int bottom;\n"
        result = parse('#ifdef CONFIG_DEEP\n#include "d0.h"\n#endif\n'
                       "int y;\n", files=files,
                       budget=ResourceBudget(max_include_depth=4))
        self.assert_confined(result, "CONFIG_DEEP")

    def test_broken_header_lexing_under_condition(self):
        # The header dies in the lexer (unterminated literal): an
        # include failure of the guarded include site, not a crash.
        files = {"include/broken.h": 'const char *s = "open;\n'}
        result = parse('#ifdef CONFIG_A\n#include "broken.h"\n#endif\n'
                       "int y;\n", files=files)
        self.assert_confined(result, "CONFIG_A")
        assert result.unit.diagnostics[0].phase == PHASE_LEX


# ---------------------------------------------------------------------------
# monkeypatched fault injection deeper in the pipeline
# ---------------------------------------------------------------------------

class TestInjectedFaults:
    def test_hoist_failure_is_confined(self, monkeypatch):
        import repro.cpp.preprocessor as pp_mod
        real_hoist = pp_mod.hoist

        def exploding_hoist(condition, tokens):
            if not condition.is_true():
                raise PreprocessorError("injected hoist failure")
            return real_hoist(condition, tokens)

        monkeypatch.setattr(pp_mod, "hoist", exploding_hoist)
        result = parse("#ifdef CONFIG_A\n#if FOO\nint x;\n#endif\n"
                       "#endif\nint y;\n")
        manager = result.unit.manager
        assert result.status == STATUS_DEGRADED
        assert result.parse.accepted
        assert result.invalid_configs.equiv(
            defined(manager, "CONFIG_A")).is_true()
        assert any("injected hoist failure" in d.message
                   for d in result.unit.diagnostics)

    def test_resolver_failure_is_confined(self, monkeypatch):
        from repro.cpp.includes import IncludeResolver

        def failing_resolve(self, name, quoted, includer):
            raise PreprocessorError(
                f"injected resolver failure for {name!r}")

        monkeypatch.setattr(IncludeResolver, "resolve", failing_resolve)
        result = parse('#ifdef CONFIG_A\n#include "h.h"\n#endif\n'
                       "int y;\n", files={"include/h.h": "int h;\n"})
        manager = result.unit.manager
        assert result.status == STATUS_DEGRADED
        assert result.invalid_configs.equiv(
            defined(manager, "CONFIG_A")).is_true()

    def test_resolver_failure_at_true_is_fatal(self, monkeypatch):
        from repro.cpp.includes import IncludeResolver

        def failing_resolve(self, name, quoted, includer):
            raise PreprocessorError("injected resolver failure")

        monkeypatch.setattr(IncludeResolver, "resolve", failing_resolve)
        with pytest.raises(PreprocessorError):
            parse('#include "h.h"\nint y;\n',
                  files={"include/h.h": "int h;\n"})

    def test_expansion_failure_is_confined(self, monkeypatch):
        from repro.cpp.expansion import Expander
        real = Expander._subst_object

        def failing_subst(self, entry, head):
            if entry.name == "POISON":
                raise PreprocessorError("injected expansion failure",
                                        head)
            return real(self, entry, head)

        monkeypatch.setattr(Expander, "_subst_object", failing_subst)
        result = parse("#define POISON 1\n"
                       "#ifdef CONFIG_A\n"
                       "int bad = POISON;\n"
                       "#else\n"
                       "int good = 0;\n"
                       "#endif\n")
        assert result.status == STATUS_DEGRADED
        assert any("injected expansion failure" in d.message
                   for d in result.unit.diagnostics)


# ---------------------------------------------------------------------------
# parser degradation: kill switch and resource budgets
# ---------------------------------------------------------------------------

def mapr_options(kill_switch, hard=False):
    base = OPTIMIZATION_LEVELS["MAPR"]
    return FMLROptions(follow_set=base.follow_set,
                       lazy_shifts=base.lazy_shifts,
                       shared_reduces=base.shared_reduces,
                       early_reduces=base.early_reduces,
                       mapr_largest_first=base.mapr_largest_first,
                       choice_merging=base.choice_merging,
                       kill_switch=kill_switch,
                       hard_kill_switch=hard)


def explosive_source(n=10):
    lines = []
    for i in range(n):
        lines += [f"#ifdef CONFIG_F{i}", f"int f{i} = {i};", "#endif"]
    lines.append("int tail;")
    return "\n".join(lines) + "\n"


class TestParserDegradation:
    def test_soft_kill_switch_no_explosion_escapes(self):
        result = parse(explosive_source(), options=mapr_options(24))
        assert result.status in (STATUS_DEGRADED, STATUS_PARSE_FAILED)
        assert result.parse.stats.kill_switch_trips >= 1
        assert result.parse.stats.dropped_subparsers > 0
        assert any(d.phase == PHASE_PARSE
                   for d in result.parse.diagnostics)
        assert not result.invalid_configs.is_false()

    def test_hard_kill_switch_still_raises(self):
        with pytest.raises(SubparserExplosion):
            parse(explosive_source(),
                  options=mapr_options(24, hard=True))

    def test_bdd_node_budget_trips_to_partial_result(self):
        result = parse(explosive_source(6),
                       budget=ResourceBudget(max_bdd_nodes=1))
        assert result.status == STATUS_DEGRADED
        assert any(d.phase == PHASE_RESOURCE
                   for d in result.parse.diagnostics)

    def test_bdd_node_budget_trips_in_sole_subparser_mode(self):
        """A unit without conditional code never forks, so every
        iteration steps the sole live subparser; the budget check still
        runs there.  The guarded ``#define`` only allocates BDD nodes."""
        source = "#ifdef CONFIG_A\n#define LIMIT 1\n#endif\n" + "".join(
            f"int v{i};\n" for i in range(40))
        result = parse(source, budget=ResourceBudget(max_bdd_nodes=1))
        stats = result.parse.stats
        assert result.status == STATUS_DEGRADED
        assert stats.max_subparsers == 1 and stats.forks == 0
        # The budget is tested every 64 iterations: the first test trips.
        assert stats.iterations == 64
        diag = result.parse.diagnostics[0]
        assert diag.phase == PHASE_RESOURCE
        assert diag.condition.is_true()
        assert result.invalid_configs.is_true()

    def test_hard_kill_switch_zero_raises_without_forks(self):
        options = FMLROptions(kill_switch=0, hard_kill_switch=True)
        with pytest.raises(SubparserExplosion) as raised:
            parse("int a;\nint b;\n", options=options)
        assert (raised.value.count, raised.value.limit) == (1, 0)

    def test_token_budget_skips_parse(self):
        result = parse("int a;\nint b;\nint c;\n",
                       budget=ResourceBudget(max_tokens=2))
        assert result.status == STATUS_DEGRADED
        assert result.timing.parse == 0.0
        diag = result.parse.diagnostics[0]
        assert diag.phase == PHASE_RESOURCE
        assert "token budget" in diag.message
        # The whole feasible space was degraded away.
        assert result.invalid_configs.is_true()

    def test_ok_unit_stays_ok_under_generous_budget(self):
        result = parse("#ifdef CONFIG_A\nint a;\n#endif\nint b;\n",
                       budget=ResourceBudget(max_bdd_nodes=10 ** 6,
                                             max_tokens=10 ** 6))
        assert result.status == STATUS_OK
        assert result.invalid_configs.is_false()
        assert result.diagnostics == []


# ---------------------------------------------------------------------------
# scheduler robustness: backoff determinism and the circuit breaker
# ---------------------------------------------------------------------------

BAD_UNIT_ENV = "REPRO_ROBUSTNESS_TEST_BAD_UNIT"


def always_raising_hook(unit):
    if os.environ.get(BAD_UNIT_ENV) == unit:
        raise RuntimeError("injected crash loop")


class TestScheduler:
    BACKOFF = dict(backoff_base=0.05, backoff_factor=2.0,
                   backoff_max=2.0, backoff_jitter=0.5, backoff_seed=7)

    def backoff_callers(self, tmp_path):
        """The three retry loops' knobs: batch waves, pool restarts,
        client reconnects."""
        return (EngineConfig(retries=2, crash_loop_threshold=0,
                             use_result_cache=False,
                             fault_hook="tests.test_robustness:"
                                        "always_raising_hook",
                             **self.BACKOFF),
                PoolConfig(**self.BACKOFF),
                SocketTransport(socket_path=str(tmp_path / "nope.sock"),
                                retries=2, **self.BACKOFF))

    def test_backoff_is_deterministic(self, tmp_path, monkeypatch):
        callers = self.backoff_callers(tmp_path)
        twins = self.backoff_callers(tmp_path)
        for knobs, twin in zip(callers, twins):
            delays = [backoff_delay(knobs, retry) for retry in range(1, 8)]
            assert delays == [backoff_delay(twin, retry)
                              for retry in range(1, 8)]
            # Exponential growth up to the cap (jitter <= 50% cannot
            # reorder consecutive doublings).
            assert all(later >= earlier for earlier, later
                       in zip(delays, delays[1:]))
            assert max(delays) <= 2.0 * 1.5
            # Each delay is its capped exponential step plus at most
            # 50% jitter.
            steps = [min(2.0, 0.05 * 2.0 ** (retry - 1))
                     for retry in range(1, 8)]
            assert all(step <= delay <= step * 1.5
                       for step, delay in zip(steps, delays))
        # Each caller paces its retries through the one helper, with
        # its own knobs and a 1-based retry index.
        calls = []

        def spy(knobs, retry):
            calls.append((knobs, retry))
            return 0.0

        for module in (scheduler, pool, client):
            monkeypatch.setattr(module, "backoff_delay", spy)
        engine_config, pool_config, transport = callers
        monkeypatch.setenv(BAD_UNIT_ENV, "bad.c")
        BatchEngine(engine_config).run(
            CorpusJob(["bad.c"], files={"bad.c": "int x;\n"}))
        idle_pool = WorkerPool(None, pool_config)
        monkeypatch.setattr(idle_pool, "_spawn", lambda: None)
        # Every fork fails: the restart paces each of its attempts.
        idle_pool._restart_one()
        transport.request("ping")
        assert calls == [(engine_config, 1), (engine_config, 2),
                         (pool_config, 1), (pool_config, 2),
                         (pool_config, 3),
                         (transport, 1), (transport, 2)]

    def test_backoff_disabled(self, tmp_path):
        for knobs in self.backoff_callers(tmp_path):
            knobs.backoff_base = 0
            assert backoff_delay(knobs, 5) == 0.0

    def test_crash_loop_circuit_breaker(self, tmp_path, monkeypatch):
        job = CorpusJob(["good.c", "bad.c"],
                        files={"good.c": "int ok;\n",
                               "bad.c": "int also_ok;\n"})
        monkeypatch.setenv(BAD_UNIT_ENV, "bad.c")
        config = EngineConfig(
            retries=5, crash_loop_threshold=2, backoff_base=0,
            cache_dir=str(tmp_path / "cache"), use_result_cache=False,
            fault_hook="tests.test_robustness:always_raising_hook")
        report = BatchEngine(config).run(job)
        statuses = report.statuses()
        assert statuses["good.c"] == STATUS_OK
        assert statuses["bad.c"] == STATUS_CRASHED
        record = [r for r in report.records if r["unit"] == "bad.c"][0]
        # Tripped at the threshold, not after the full retry budget.
        assert record["attempt"] == 2
        assert "circuit breaker" in record["error"]
        assert not report.all_ok

    def test_crashed_units_stay_uncached(self, tmp_path, monkeypatch):
        job = CorpusJob(["bad.c"], files={"bad.c": "int x;\n"})
        monkeypatch.setenv(BAD_UNIT_ENV, "bad.c")
        config = EngineConfig(
            retries=5, crash_loop_threshold=2, backoff_base=0,
            cache_dir=str(tmp_path / "cache"),
            fault_hook="tests.test_robustness:always_raising_hook")
        BatchEngine(config).run(job)
        # Second run without the fault: the unit must be re-attempted
        # (and now succeed) rather than answered "crashed" from cache.
        monkeypatch.delenv(BAD_UNIT_ENV)
        warm = BatchEngine(config).run(job)
        record = warm.records[0]
        assert record["cache"] == "miss"
        assert record["status"] == STATUS_OK


# ---------------------------------------------------------------------------
# end to end: guarded-failure fuzzing stays degraded, never crashed
# ---------------------------------------------------------------------------

class TestGuardedFuzz:
    def test_guarded_failures_degrade_not_crash(self):
        from repro.corpus.fuzz import FuzzSpec
        from repro.qa import run_fuzz
        spec = FuzzSpec(variables=3, items=6,
                        weights={"guarded_error": 4,
                                 "guarded_missing_include": 3})
        fuzz = run_fuzz(units=4, seed=0, spec=spec, workers=1,
                        do_shrink=False)
        assert fuzz.clean
        assert set(fuzz.report.by_status) <= {"ok", "degraded"}
        # With heavy guarded-failure weights, confinement must have
        # fired on at least one unit.
        assert fuzz.report.by_status.get("degraded", 0) >= 1
