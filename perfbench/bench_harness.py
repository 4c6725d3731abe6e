"""Self-test of the perfbench harness (not a benchmark).

    PYTHONPATH=src python -m pytest perfbench/bench_harness.py -q

Runs every workload for one second on a four-unit corpus, untraced and
traced, and checks the harness itself: the tail-percentile rule, metric
names, that ``BENCHMARK.json`` and the runner name the same metrics,
that the trace validates, and that a corrupted daemon record fails the
record-equality check.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run as runner  # noqa: E402
import setup_probe  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = dict(subsystems=2, drivers_per_subsystem=2, figure6_entries=4,
            functions_per_driver=2)


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("n, expected", [
    (1, 0.5), (19, 0.5), (20, 0.5), (40, 0.75), (99, 0.75), (100, 0.9),
    (200, 0.95), (1000, 0.99), (9999, 0.99), (10000, 0.999)])
def test_tail_percentile_keeps_ten_samples_above(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected > 0.5:
        assert round(n * (1 - expected), 6) >= 10


def test_a_percentile_without_ten_samples_above_is_refused():
    values = [float(i) for i in range(999)]
    assert measure.checked_percentile(values, 0.95) == 948.0
    assert measure.checked_percentile(values[:5], 0.5) == 2.0
    with pytest.raises(ValueError):
        measure.checked_percentile(values, 0.99)
    assert measure.summarize(values)["tail"] == "p95"


class _Probed(measure.HostSpeed):
    """Probes at fixed times and speeds instead of measured ones."""

    def __init__(self, probes):
        super().__init__()
        self.probes = probes


def test_samples_are_scaled_by_the_probes_around_them():
    # The host ran at half speed (probe 4 ms) from t=10 on: samples
    # taken then read as twice as long, and scale back to the same
    # reference-host time as the samples taken at full speed.
    ref = measure.PROBE_REF_S
    speed = _Probed([(0.0, ref), (5.0, ref), (10.0, 2 * ref),
                     (15.0, 2 * ref)])
    cold = [("a", 0.5, 4.0), ("a", 1.0, 14.0), ("a", 0.5, 4.5),
            ("b", 0.25, 4.0), ("b", 0.5, 14.0), ("b", 0.25, 4.2)]
    assert measure.units_per_s(cold, speed) == 2 / 0.75
    assert measure.units_per_s(cold, None) == 2 / 0.75
    bursts = [(1.0, 2.0, [1.0, 1.2, 1.1])] * 10 + \
        [(11.0, 12.0, [2.0, 2.4, 2.2])] * 10
    assert measure.hit_ms(bursts, speed) == 1.1
    assert measure.hit_ms(bursts, None) == (1.1 + 2.2) / 2
    with pytest.raises(ValueError):
        measure.hit_ms(bursts[:measure.MIN_BURSTS - 1], speed)
    # A sample between probes of two speeds takes their mean.
    assert speed.scale(7.0, 8.0) == ref / (1.5 * ref)


def test_benchmark_json_names():
    spec = benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == \
        list(runner.WORKLOAD_NAMES)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])


def test_bounds_are_at_most_ten_percent_and_largest_for_setup():
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    assert max(bounds.values()) <= 0.10
    assert bounds["setup_s"] == max(bounds.values())


def test_default_seconds_come_from_benchmark_json():
    assert runner.parse_args([]).seconds == benchmark_json()["run_seconds"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Four-unit corpora, and the run's global state restored after."""
    for name in setup_probe.SPECS:
        monkeypatch.setitem(setup_probe.SPECS, name, TINY)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.gettempdir())
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.chdir(ROOT)
    return tmp_path


@pytest.mark.parametrize("workload", runner.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_the_declared_metrics(tiny, capsys, workload,
                                             trace):
    trace_file = str(tiny / "trace.json")
    args = runner.parse_args(["--workload", workload, "--seconds", "1",
                              "--trace", str(trace),
                              "--trace-file", trace_file])
    assert runner.run_one(args, workload) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        from repro.obs import validate_chrome_trace
        with open(trace_file, encoding="utf-8") as handle:
            assert validate_chrome_trace(json.load(handle)) == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


class _Answer:
    def __init__(self, record):
        self.record = record


class _Session:
    """Stands in for a daemon connection that answers one record."""

    def __init__(self, record):
        self.answer = record

    def parse(self, unit, fresh=False):
        return _Answer(dict(self.answer))


def test_corrupted_daemon_record_fails_the_equality_check(tmp_path):
    corpus = setup_probe.make_corpus("serve-warm", 1)
    unit = corpus.units[0]
    run = workloads.Run(1, 1, False, str(tmp_path))
    expected = workloads.reference(run, corpus.files, [unit],
                                   corpus.include_paths, counts=False)[unit]
    section = run.sections[0]
    served = dict(expected, id=7, op="parse", tier="memory", cache="hit",
                  serve={"seconds": 0.001})
    workloads.request(run, section, _Session(served), unit, expected,
                      "hit", "memory")
    assert run.correct
    corrupted = dict(served, preprocessor=dict(
        served["preprocessor"], includes=served["preprocessor"]["includes"]
        + 1))
    workloads.request(run, section, _Session(corrupted), unit, expected,
                      "hit", "memory")
    assert not run.correct
    assert run.checks["hit record equals in-process parse"][1] == 1
