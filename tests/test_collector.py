"""No cyclic garbage per unit, and no cyclic collection inside a parse.

Count-based, no timing.  A unit's per-unit state (its BDD manager, node
and computed tables, handles, kernels) is acyclic, so a warm pass run
with the collector off leaves nothing for ``gc.collect()`` to find on
any path; and ``SuperC.parse_source`` pauses the collector through
``repro.superc.COLLECTOR_PAUSE``, restoring the caller's setting.
"""

import gc
import os
import sys
import threading
import time
import weakref

import pytest

from repro.api import Config, Session
from repro.bdd import BDDManager
from repro.corpus import KernelSpec, generate_kernel
from repro.cpp import DictFileSystem, PreprocessorError
from repro.engine import BatchEngine, CorpusJob, EngineConfig
from repro.parser.fmlr import (FMLROptions, OPTIMIZATION_LEVELS,
                               SubparserExplosion)
from repro.superc import COLLECTOR_PAUSE, SuperC
from tests.test_fmlr import GOLDEN_KERNEL

# The kernel-batch tree's shape (4 subsystems x 3 drivers, 12 units).
KERNEL_BATCH = dict(seed=2012, subsystems=4, drivers_per_subsystem=3,
                    figure6_entries=10)


@pytest.fixture
def collector_enabled():
    """Every test starts with the collector on and leaves it on."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def paths(corpus):
    """One warm-pass callable per entry point."""
    superc = SuperC(corpus.filesystem(), include_paths=corpus.include_paths)
    session = Session(Config(files=corpus.files,
                             include_paths=tuple(corpus.include_paths)))
    engine = BatchEngine(EngineConfig(workers=1, use_result_cache=False))
    job = CorpusJob.from_corpus(corpus)
    return {
        "SuperC": lambda: [superc.parse_file(unit)
                           for unit in corpus.units],
        "Session": lambda: [session.parse_file(unit)
                            for unit in corpus.units],
        "BatchEngine": lambda: engine.run(job).records,
    }


def unreachable_after_warm_pass(run):
    run()  # cold: grammar tables, lazy imports, first-use caches
    gc.collect()
    gc.disable()
    try:
        results = run()
        assert results
        del results
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("path", ["SuperC", "Session", "BatchEngine"])
    def test_kernel_batch_tree(self, path, collector_enabled):
        corpus = generate_kernel(KernelSpec(**KERNEL_BATCH))
        assert unreachable_after_warm_pass(paths(corpus)[path]) == 0

    @pytest.mark.parametrize("path", ["SuperC", "Session", "BatchEngine"])
    def test_golden_kernel(self, path, collector_enabled):
        corpus = generate_kernel(KernelSpec(**GOLDEN_KERNEL))
        assert unreachable_after_warm_pass(paths(corpus)[path]) == 0

    def test_dropped_manager_is_freed_by_refcounting(self,
                                                     collector_enabled):
        gc.disable()
        manager = BDDManager()
        a, b = manager.var("A"), manager.var("B")
        f = (a & ~b) | (b & manager.var("C"))
        assert list(f.all_sat()) and f.sat_count() == 4
        assert f.to_expr_string()
        alive = weakref.ref(manager)
        del manager, a, b
        assert alive() is not None  # f still holds its manager
        del f
        assert alive() is None


class TestCollectorPause:
    def test_no_collection_inside_parse_source(self, collector_enabled):
        corpus = generate_kernel(KernelSpec(**GOLDEN_KERNEL))
        superc = SuperC(corpus.filesystem(),
                        include_paths=corpus.include_paths)
        unit = corpus.units[0]
        text = corpus.files[unit]
        superc.parse_source(text, unit)  # warm
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.callbacks.append(count)
        try:
            result = superc.parse_source(text, unit)
        finally:
            gc.callbacks.remove(count)
        assert result.ok
        assert result.parse.stats.iterations > 1000
        assert collections == []
        assert gc.isenabled()

    def test_caller_setting_restored_when_enabled(self,
                                                  collector_enabled):
        superc = SuperC(DictFileSystem({}))
        superc.parse_source("int x;\n")
        assert gc.isenabled()

    def test_caller_setting_restored_when_disabled(self,
                                                   collector_enabled):
        superc = SuperC(DictFileSystem({}))
        gc.disable()
        superc.parse_source("int x;\n")
        assert not gc.isenabled()
        with COLLECTOR_PAUSE:
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses(self, collector_enabled):
        with COLLECTOR_PAUSE:
            assert not gc.isenabled()
            with COLLECTOR_PAUSE:
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner leaver keeps it off
        assert gc.isenabled()

    def test_overlapping_threads(self, collector_enabled):
        entered = threading.Event()
        leave = threading.Event()
        seen = []

        def hold():
            with COLLECTOR_PAUSE:
                entered.set()
                leave.wait(10.0)
                seen.append(gc.isenabled())

        holder = threading.Thread(target=hold)
        with COLLECTOR_PAUSE:
            holder.start()
            assert entered.wait(10.0)
        # This thread left first; the holder still needs it off.
        assert not gc.isenabled()
        leave.set()
        holder.join(10.0)
        assert not holder.is_alive()
        assert seen == [False]
        assert gc.isenabled()  # the last leaver restored it

    def test_concurrent_pauses_keep_the_count(self, collector_enabled):
        # 8 threads x 2,000 pauses at a 1 us switch interval: a lost
        # depth update would let a leaver re-enable the collector under
        # another holder, or leave it off at the end.
        enabled_inside = []
        start = threading.Barrier(8)

        def pause_often():
            start.wait(10.0)
            for _ in range(2000):
                with COLLECTOR_PAUSE:
                    if gc.isenabled():
                        enabled_inside.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pause_often)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert enabled_inside == []
        assert gc.isenabled()

    def test_raising_parse_restores(self, collector_enabled):
        superc = SuperC(DictFileSystem({}))
        with pytest.raises(FileNotFoundError):
            superc.parse_file("missing.c")
        assert gc.isenabled()
        with pytest.raises(PreprocessorError):
            superc.parse_source("#if (\n#endif\n")
        assert gc.isenabled()

    def test_budget_trip_restores(self, collector_enabled):
        base = OPTIMIZATION_LEVELS["MAPR"]
        options = FMLROptions(follow_set=base.follow_set,
                              lazy_shifts=base.lazy_shifts,
                              shared_reduces=base.shared_reduces,
                              early_reduces=base.early_reduces,
                              mapr_largest_first=base.mapr_largest_first,
                              choice_merging=base.choice_merging,
                              kill_switch=4, hard_kill_switch=True)
        source = "".join(f"#ifdef CONFIG_F{i}\nint f{i} = {i};\n#endif\n"
                         for i in range(8)) + "int tail;\n"
        superc = SuperC(DictFileSystem({}), options=options)
        with pytest.raises(SubparserExplosion):
            superc.parse_source(source)
        assert gc.isenabled()
        gc.disable()
        with pytest.raises(SubparserExplosion):
            superc.parse_source(source)
        assert not gc.isenabled()


def wait_child(pid):
    """The forked child's exit status; a child stuck for 10 s is
    killed and fails the test."""
    deadline = time.monotonic() + 10.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child deadlocked on the collector pause")
        time.sleep(0.01)


class TestPauseAcrossFork:
    def fork_while(self, hold):
        """Fork while ``hold`` (a context manager) is held by another
        thread; the child checks the collector and the pause."""
        held = threading.Event()
        release = threading.Event()

        def holder():
            with hold:
                held.set()
                release.wait(10.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(10.0)
        pid = os.fork()
        if pid == 0:
            try:
                ok = gc.isenabled()
                with COLLECTOR_PAUSE:
                    ok = ok and not gc.isenabled()
                ok = ok and gc.isenabled()
                os._exit(0 if ok else 1)
            finally:
                os._exit(2)
        release.set()
        thread.join(10.0)
        assert not thread.is_alive()
        status = wait_child(pid)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert gc.isenabled()

    def test_fork_while_a_thread_holds_the_pause(self, collector_enabled):
        self.fork_while(COLLECTOR_PAUSE)

    def test_fork_while_a_thread_holds_the_lock(self, collector_enabled):
        with COLLECTOR_PAUSE:  # registers the fork hook
            pass
        self.fork_while(COLLECTOR_PAUSE._lock)
