"""Scaling sweep: SuperC latency vs corpus size (Figure 10 support).

Figure 10's claim is that SuperC's latency scales roughly linearly
with compilation-unit size.  This bench sweeps the corpus generator's
scale knob and reports total latency per scale, so the growth curve is
visible directly (an extension of the paper's single-scatter plot).

A second bench drives the same corpus through ``repro.engine``'s
worker pool and reports the serial-vs-parallel speedup — the paper's
7,665-unit kernel run is embarrassingly parallel across compilation
units, and this measures how much of that the batch engine recovers.

A third bench bounds the observability layer's cost on the un-traced
path: the pipeline's hot loops must degenerate to local-bool checks
under the default ``NULL_TRACER``, never calls into the tracer.
"""

import os
import time

from benchmarks.conftest import emit
from repro.corpus import KernelSpec, generate_kernel
from repro.engine import BatchEngine, CorpusJob, EngineConfig
from repro.eval import measure_superc
from repro.obs import NullTracer, Tracer
from repro.superc import SuperC

SCALES = [1, 2, 3]

WORKER_COUNTS = [1, 2, 4]


def test_scaling_linearity(benchmark):
    holder = {}

    def run():
        rows = []
        for scale in SCALES:
            spec = KernelSpec(seed=99, subsystems=1,
                              drivers_per_subsystem=1,
                              figure6_entries=6).scaled(scale)
            corpus = generate_kernel(spec)
            dist = measure_superc(corpus)
            total_bytes = sum(sample.size_bytes
                              for sample in dist.samples)
            rows.append((scale, len(corpus.units), total_bytes,
                         dist.total))
        holder["rows"] = rows
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]

    lines = ["", "=" * 58,
             "Scaling: SuperC latency vs corpus size",
             f"{'scale':>6}{'units':>7}{'KB':>9}{'seconds':>10}"
             f"{'ms/KB':>8}"]
    for scale, units, total_bytes, seconds in rows:
        per_kb = 1000.0 * seconds / (total_bytes / 1024)
        lines.append(f"{scale:>6}{units:>7}{total_bytes / 1024:>9.0f}"
                     f"{seconds:>10.2f}{per_kb:>8.2f}")
    lines.append("=" * 58)
    emit(lines)
    benchmark.extra_info["rows"] = rows

    # Rough linearity: per-byte cost at the largest scale within a
    # small factor of the smallest.
    first = rows[0][3] / rows[0][2]
    last = rows[-1][3] / rows[-1][2]
    assert last < 8 * first
    assert first < 8 * last


def test_parallel_speedup(benchmark, tmp_path):
    """Serial vs worker-pool wall time through ``repro.engine``."""
    corpus = generate_kernel(KernelSpec(seed=99, subsystems=4,
                                        drivers_per_subsystem=4,
                                        figure6_entries=6))
    job = CorpusJob.from_corpus(corpus)
    holder = {}

    def run():
        rows = []
        baseline = None
        for workers in WORKER_COUNTS:
            config = EngineConfig(workers=workers,
                                  use_result_cache=False,
                                  cache_dir=str(tmp_path / "cache"))
            report = BatchEngine(config).run(job)
            assert report.all_ok, report.by_status
            if baseline is None:
                baseline = report
            else:
                # Parallelism must not change any outcome.
                assert report.statuses() == baseline.statuses()
                assert report.subparser_rollup() == \
                    baseline.subparser_rollup()
            rows.append((workers, report.wall_seconds,
                         report.cpu_seconds))
        holder["rows"] = rows
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]
    serial_wall = rows[0][1]

    lines = ["", "=" * 58,
             f"Batch engine speedup ({len(job.units)} units, "
             f"{os.cpu_count()} cpus)",
             f"{'workers':>8}{'wall s':>9}{'cpu s':>9}{'speedup':>9}"]
    for workers, wall, cpu in rows:
        lines.append(f"{workers:>8}{wall:>9.2f}{cpu:>9.2f}"
                     f"{serial_wall / wall:>8.2f}x")
    lines.append("=" * 58)
    emit(lines)
    benchmark.extra_info["rows"] = rows


class CountingNullTracer(NullTracer):
    """A disabled tracer that counts how often the pipeline calls into
    it.  The un-traced fast path hoists ``tracer.enabled`` into local
    bools, so call volume must stay a small per-unit constant — it must
    NOT scale with parser iterations or token counts."""

    def __init__(self):
        self.calls = 0

    def span(self, name, /, **args):
        self.calls += 1
        return NullTracer.span(self, name)

    def event(self, name, /, **args):
        self.calls += 1

    def count(self, name, n=1):
        self.calls += 1

    def record(self, name, value):
        self.calls += 1

    def mark(self):
        self.calls += 1
        return ()


def test_null_tracer_overhead(benchmark):
    """Bound the observability tax of an un-traced parse.

    Two measurements, both required:

    1. Structural: the number of tracer method calls per un-traced
       unit is a small constant (span enter/exit at phase boundaries),
       orders of magnitude below the FMLR iteration count — the hot
       loops never call the tracer when it is disabled.
    2. Projected wall-clock: guard checks per parse x the measured
       cost of one ``if trace:`` local-bool check must be a negligible
       fraction (< 3%) of the parse itself.
    """
    spec = KernelSpec(seed=31, subsystems=1, drivers_per_subsystem=2,
                      figure6_entries=6)
    corpus = generate_kernel(spec)
    holder = {}

    def run():
        # Un-traced wall time over the corpus.
        superc = SuperC(corpus.filesystem(),
                        include_paths=corpus.include_paths)
        start = time.perf_counter()
        for unit in corpus.units:
            superc.parse_file(unit)
        untraced_seconds = time.perf_counter() - start

        # Traced run: gives the iteration count (the hot-loop trip
        # count the guards are executed in) and the traced wall time.
        tracer = Tracer()
        traced = SuperC(corpus.filesystem(),
                        include_paths=corpus.include_paths,
                        tracer=tracer)
        start = time.perf_counter()
        for unit in corpus.units:
            traced.parse_file(unit)
        traced_seconds = time.perf_counter() - start
        # One histogram sample is recorded per FMLR iteration, so its
        # length is exactly the hot-loop trip count.
        iterations = len(tracer.histograms["fmlr.subparsers"])

        # Structural: disabled-tracer call volume per unit.
        counting = CountingNullTracer()
        counted = SuperC(corpus.filesystem(),
                         include_paths=corpus.include_paths,
                         tracer=counting)
        for unit in corpus.units:
            counted.parse_file(unit)
        calls_per_unit = counting.calls / len(corpus.units)

        # Cost of one hot-loop guard: `if trace:` on a local bool.
        trace = False
        reps = 200_000
        start = time.perf_counter()
        for _ in range(reps):
            if trace:
                raise AssertionError
        per_guard = (time.perf_counter() - start) / reps
        # ~5 guard sites execute per FMLR iteration (kill switch, BDD
        # budget, histogram, and the front-runner's limit test, or fork
        # and merge when the stretch ends), plus the per-unit calls.
        guards = 5 * iterations + counting.calls
        projected = guards * per_guard
        holder.update(untraced=untraced_seconds,
                      traced=traced_seconds, iterations=iterations,
                      calls_per_unit=calls_per_unit,
                      per_guard=per_guard, projected=projected)
        return holder

    benchmark.pedantic(run, rounds=1, iterations=1)

    overhead = holder["projected"] / holder["untraced"]
    traced_ratio = holder["traced"] / holder["untraced"]
    lines = ["", "=" * 58,
             "NullTracer overhead (un-traced observability tax)",
             f"  un-traced corpus parse   {holder['untraced']:8.3f}s",
             f"  traced corpus parse      {holder['traced']:8.3f}s "
             f"({traced_ratio:.2f}x)",
             f"  fmlr iterations          {holder['iterations']:>8}",
             f"  tracer calls/unit        "
             f"{holder['calls_per_unit']:8.1f}",
             f"  guard check cost         "
             f"{holder['per_guard'] * 1e9:8.1f}ns",
             f"  projected guard overhead {100 * overhead:7.3f}%",
             "=" * 58]
    emit(lines)
    benchmark.extra_info.update(holder)

    # The hot loops must not call a disabled tracer: per-unit call
    # volume is a phase-boundary constant, not O(iterations).
    assert holder["calls_per_unit"] < 64
    assert holder["calls_per_unit"] * len(corpus.units) < \
        holder["iterations"] / 10
    # And the guards the fast path does execute are projected to cost
    # well under a few percent of the parse.
    assert overhead < 0.03
