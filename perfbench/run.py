"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py [--workload NAME]... [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-file FILE] [--out FILE]

With one ``--workload`` the workload runs in this process; with none
(all four) or several, each runs in a fresh subprocess of this script.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
Every run prints its metrics by name with unit, sample count and tail
percentile, checks every output it sees, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the
time into an untraced and a traced half and reports the per-layer
metrics, writing the traced half's spans as a Chrome trace.  The exit
status is 0 when every check passed, 1 when one failed, 2 when the
source tree is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("kernel-batch", "variability-heavy", "serve-warm",
                  "serve-edit")


def run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return float(json.load(f)["run_seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "half of the run")
    parser.add_argument("--trace-file", metavar="FILE",
                        help="Chrome trace of the traced half (default "
                             ".perfbench/trace-WORKLOAD-SEED.json)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    return args


def environment() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha}


# -- metrics --------------------------------------------------------------


def end_to_end(run) -> dict:
    import measure
    section = run.sections[0]
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "units_per_s": (measure.units_per_s(section.cold, section.speed),
                        "1/s"),
        "hit_ms": (measure.hit_ms(section.bursts, section.speed), "ms"),
    }


def per_layer(run) -> dict:
    import measure
    plain, traced = run.sections[0], run.sections[-1]
    unit, hit = (measure.summarize(plain.cold_ms),
                 measure.summarize(plain.hit_ms))
    pooled_units, pooled_wall, pooled_busy = run.pool
    counts = run.counts
    phases = traced.phases
    lex = [p[1] for p in phases]
    cpp = [p[2] for p in phases]
    fmlr = [p[3] for p in phases]
    total = sum(lex) + sum(cpp) + sum(fmlr)

    lanes = [traced.recorder.spans] + [spans for _pid, _name, spans
                                       in traced.lanes]
    hits = traced.hit_rids
    hit_self: dict = {}
    all_self: dict = {}
    for spans in lanes:
        for name, seconds in measure.self_times(
                [s for s in spans if s["rid"] in hits]).items():
            hit_self[name] = hit_self.get(name, 0.0) + seconds
        for name, seconds in measure.self_times(spans).items():
            all_self[name] = all_self.get(name, 0.0) + seconds
    # The daemon's request time, which its layers' self times divide.
    request_time = sum(s["end"] - s["start"] for _pid, _name, spans
                       in traced.lanes for s in spans
                       if s["name"] == "serve.request")
    n_hits = traced.hit_units or 1
    closure = hit_self.get("engine.closure_digest", 0.0) + \
        hit_self.get("serve.unit_key", 0.0)
    lookup = hit_self.get("engine.cache_get", 0.0) + \
        hit_self.get("serve.lookup", 0.0)
    hit_mean_s = statistics.mean(traced.hit_ms) / 1000.0

    def share(name):
        return all_self.get(name, 0.0) / request_time if request_time \
            else 0.0

    def rate(per_unit, seconds):
        return statistics.median([per_unit[unit] / s for (unit, s)
                               in zip((p[0] for p in phases), seconds)
                               if s > 0])

    metrics = {
        "raw.units_per_s": (measure.units_per_s(plain.cold, None), "1/s"),
        "raw.hit_ms": (measure.hit_ms(plain.bursts, None), "ms"),
        "host.probe_ms": (plain.speed.median_ms(), "ms"),
        "unit.p50_ms": (unit["p50"], "ms"),
        "unit.tail_ms": (unit["tail_value"], "ms"),
        "hit.p50_ms": (hit["p50"], "ms"),
        "hit.tail_ms": (hit["tail_value"], "ms"),
        "lexer.ms_per_unit": (statistics.median(lex) * 1e3, "ms"),
        "lexer.share": (sum(lex) / total, "ratio"),
        "lexer.tokens_per_s": (rate(run.unit_tokens, lex), "1/s"),
        "cpp.ms_per_unit": (statistics.median(cpp) * 1e3, "ms"),
        "cpp.share": (sum(cpp) / total, "ratio"),
        "fmlr.ms_per_unit": (statistics.median(fmlr) * 1e3, "ms"),
        "fmlr.share": (sum(fmlr) / total, "ratio"),
        "fmlr.iterations_per_s": (rate(run.unit_iterations, fmlr), "1/s"),
        "bdd.apply_cache_hit_rate": (
            counts["bdd.apply_cache_hits"] / counts["bdd.apply_calls"],
            "ratio"),
        "cgrammar.tables_s": (statistics.median(run.tables_s), "s"),
        "probe.closure_ms": (closure / n_hits * 1e3, "ms"),
        "probe.lookup_ms": (lookup / n_hits * 1e3, "ms"),
        "hit.other_ms": ((hit_mean_s - (closure + lookup) / n_hits) * 1e3,
                         "ms"),
        "engine.result_cache.hit_rate": (
            traced.result_cache[0] / traced.result_cache[1]
            if traced.result_cache[1] else 0.0, "ratio"),
        "engine.pooled_units_per_s": (pooled_units / pooled_wall, "1/s"),
        "engine.pool_busy_ratio": (pooled_busy / (pooled_wall * 2),
                                   "ratio"),
        "engine.attempts_per_unit": (statistics.mean(traced.attempts),
                                     "ratio"),
        "serve.token_fp.share": (share("serve.token_fp"), "ratio"),
        "serve.dispatch.share": (share("serve.dispatch"), "ratio"),
        "serve.publish.share": (share("serve.publish"), "ratio"),
        "serve.invalidate.share": (share("serve.invalidate"), "ratio"),
        "serve.queue.share": (traced.queue_s / (hit_mean_s * n_hits),
                              "ratio"),
        "serve.affected_units": (
            statistics.mean(traced.affected) if traced.affected else 0,
            "count"),
        "serve.journal_resumed": (
            traced.serve_stats.get("journal_resumed", 0), "count"),
        "serve.cache_hit_rate": (
            traced.serve_stats.get("cache_hit_rate", 0.0), "ratio"),
        "load.late_share": (
            sum(late > 0.001 for late in traced.late_s)
            / len(traced.late_s) if traced.late_s else 0.0, "ratio"),
        "baseline.gcc_like_ratio": (run.gcc_ratio, "x"),
        "trace.overhead_pct.parse": (100.0 * (
            measure.units_per_s(plain.cold, plain.speed)
            / measure.units_per_s(traced.cold, traced.speed) - 1), "%"),
        "trace.overhead_pct.hit": (100.0 * (
            measure.hit_ms(traced.bursts, traced.speed)
            / measure.hit_ms(plain.bursts, plain.speed) - 1), "%"),
    }
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    return metrics


COUNTS = ("lexer.tokens", "cpp.invocations", "cpp.hoisted_invocations",
          "cpp.includes", "cpp.conditionals", "cpp.token_pastings",
          "bdd.nodes_created", "bdd.apply_calls", "fmlr.iterations",
          "fmlr.forks", "fmlr.merges", "fmlr.max_subparsers",
          "fmlr.action_lookups", "fmlr.shared_reduces", "fmlr.lazy_shifts",
          "fmlr.kill_switch_trips", "fmlr.choice_nodes", "fmlr.ast_nodes")


# -- one workload ---------------------------------------------------------


def run_one(args, workload: str) -> int:
    import measure
    from repro.obs import validate_chrome_trace
    from workloads import WORKLOADS, Run

    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    # Everything the run and its children write stays in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    run = Run(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        WORKLOADS[workload](run)
    finally:
        run.stop_daemons()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {workload}: seed {args.seed}, "
          f"{args.seconds:g} s measured, trace {args.trace}")
    section = run.sections[0]
    samples = {"setup_ms": [seconds * 1e3 for seconds in run.setup_s],
               "unit_ms": section.cold_ms, "hit_ms": section.hit_ms,
               **section.extra}
    summaries = {label: measure.summarize(values)
                 for label, values in samples.items()}
    for label, summary in summaries.items():
        print(f"  {label:<14} n={summary['n']:<6} "
              f"p50={summary['p50']:.3f} ms  "
              f"{summary['tail']}={summary['tail_value']:.3f} ms")
    parses = collections.Counter(unit for unit, _s, _end in section.cold)
    unscaled = {"units_per_s": measure.units_per_s(section.cold, None),
                "hit_ms": measure.hit_ms(section.bursts, None),
                "probe_ms": section.speed.median_ms()}
    print(f"  {len(parses)} units parsed {min(parses.values())}-"
          f"{max(parses.values())} times each, {len(section.bursts)} warm "
          f"bursts, {len(section.speed.probes)} host probes (median "
          f"{unscaled['probe_ms']:.3f} ms); unscaled units_per_s "
          f"{unscaled['units_per_s']:.4g}, hit_ms "
          f"{unscaled['hit_ms']:.4g}")

    metrics = end_to_end(run) if not args.trace else per_layer(run)
    if args.trace:
        traced = run.sections[-1]
        lanes = [(1, "perfbench load", traced.recorder.spans)]
        lanes.extend(traced.lanes)
        trace = measure.chrome_trace(lanes)
        problems = validate_chrome_trace(trace)
        run.check("trace validates", not problems, "; ".join(problems[:3]))
        path = args.trace_file or os.path.join(
            base, f"trace-{workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        print(f"  trace: {os.path.relpath(path)} "
              f"({len(trace['traceEvents'])} events)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    for name, (passed, failed, why) in run.checks.items():
        status = "ok  " if not failed else "FAIL"
        print(f"  check {status} {name}: {passed} passed, {failed} failed"
              + (f" ({why})" if why else ""))

    result = {"correct": run.correct, "attempted": max(1, run.attempted),
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        record = dict(result, workload=workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      samples=summaries, unscaled=unscaled,
                      **environment())
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if run.correct else 1


# -- several workloads ----------------------------------------------------


def run_many(args, workloads) -> int:
    """Each workload in a fresh subprocess; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = []
    code = 0
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    for workload in workloads:
        out = os.path.join(base, f"out-{workload}-{os.getpid()}.json")
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", out]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not os.path.exists(out):
            combined["correct"] = False
            continue
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
        os.remove(out)
        records.append(record)
        combined["correct"] &= record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        for name, metric in record["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": records}, handle, indent=1, sort_keys=True)
    combined["attempted"] = max(1, combined["attempted"])
    print(json.dumps(combined), flush=True)
    return code if combined["correct"] else max(code, 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    workloads = args.workload or list(WORKLOAD_NAMES)
    if len(workloads) > 1:
        return run_many(args, workloads)
    try:
        return run_one(args, workloads[0])
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
