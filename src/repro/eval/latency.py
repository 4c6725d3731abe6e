"""Latency measurements: Figures 9 and 10.

Figure 9: the cumulative latency distribution per compilation unit for
SuperC vs TypeChef, plus each tool's maximum and the kernel total.
The TypeChef proxy runs the identical pipeline over the CNF+DPLL
formula algebra (the paper blames TypeChef's knee on exactly that
conversion).

Figure 10: SuperC's latency breakdown — lexing, preprocessing, and
parsing each scale roughly linearly with compilation-unit size — plus
the gcc single-configuration percentiles as the performance floor.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines import FormulaManager, GccLike, allyesconfig
from repro.cgrammar import c_tables, classify, make_context_factory
from repro.corpus import KernelCorpus
from repro.cpp import Preprocessor
from repro.eval.usage import found_paths, unit_read_set
from repro.parser.fmlr import FMLRParser
from repro.superc import SuperC


class LatencySample:
    """One compilation unit's timings."""

    def __init__(self, unit: str, seconds: float, size_bytes: int,
                 lex: float = 0.0, preprocess: float = 0.0,
                 parse: float = 0.0):
        self.unit = unit
        self.seconds = seconds
        self.size_bytes = size_bytes
        self.lex = lex
        self.preprocess = preprocess
        self.parse = parse


class LatencyDistribution:
    """Figure 9 series for one tool."""

    def __init__(self, tool: str, samples: List[LatencySample]):
        self.tool = tool
        self.samples = samples

    @property
    def total(self) -> float:
        return sum(sample.seconds for sample in self.samples)

    @property
    def maximum(self) -> float:
        return max((s.seconds for s in self.samples), default=0.0)

    def percentile(self, p: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(s.seconds for s in self.samples)
        index = min(len(ordered) - 1,
                    max(0, int(round(p * (len(ordered) - 1)))))
        return ordered[index]

    def cdf(self) -> List[Tuple[float, float]]:
        ordered = sorted(s.seconds for s in self.samples)
        total = len(ordered)
        return [(seconds, (i + 1) / total)
                for i, seconds in enumerate(ordered)]


def unit_size_bytes(corpus: KernelCorpus, unit: str,
                    read_set: Optional[Set[str]] = None) -> int:
    """Compilation-unit size: the C file plus every file its
    preprocessor run reads (Figure 10's x axis).  ``read_set``
    defaults to :func:`unit_read_set`'s."""
    if read_set is None:
        read_set = unit_read_set(corpus, unit)
    return sum(len(corpus.files[path]) for path in read_set | {unit})


def measure_superc(corpus: KernelCorpus) -> LatencyDistribution:
    """Figure 9/10: SuperC per-unit latency with breakdown."""
    superc = SuperC(corpus.filesystem(),
                    include_paths=corpus.include_paths)
    samples = []
    for unit in corpus.units:
        result = superc.parse_file(unit)
        timing = result.timing
        samples.append(LatencySample(
            unit, timing.total,
            unit_size_bytes(corpus, unit, found_paths(result.reads)),
            lex=timing.lex, preprocess=timing.preprocess,
            parse=timing.parse))
    return LatencyDistribution("SuperC", samples)


def measure_typechef_proxy(corpus: KernelCorpus) -> LatencyDistribution:
    """Figure 9: the same pipeline over CNF+DPLL presence conditions."""
    fs = corpus.filesystem()
    tables = c_tables()
    samples = []
    for unit in corpus.units:
        size = unit_size_bytes(corpus, unit)
        manager = FormulaManager()
        preprocessor = Preprocessor(
            fs, include_paths=corpus.include_paths, manager=manager)
        text = fs.read(unit)
        start = time.perf_counter()
        compilation_unit = preprocessor.preprocess(text, unit)
        parser = FMLRParser(tables, classify,
                            make_context_factory(manager))
        parser.parse(compilation_unit.tree, manager,
                     compilation_unit.feasible_condition)
        seconds = time.perf_counter() - start
        samples.append(LatencySample(unit, seconds, size))
    return LatencyDistribution("TypeChef-proxy", samples)


def measure_gcc_like(corpus: KernelCorpus,
                     config: Optional[Dict[str, str]] = None) \
        -> LatencyDistribution:
    """Figure 10's baseline: single-configuration latency under an
    allyesconfig-style configuration."""
    chosen = config if config is not None else \
        allyesconfig(_compatible_allyes(corpus))
    gcc = GccLike(corpus.filesystem(),
                  include_paths=corpus.include_paths, config=chosen)
    samples = []
    for unit in corpus.units:
        size = unit_size_bytes(corpus, unit)
        start = time.perf_counter()
        result = gcc.compile_file(unit)
        seconds = time.perf_counter() - start
        samples.append(LatencySample(
            unit, seconds, size,
            preprocess=result.timing.preprocess,
            parse=result.timing.parse))
    return LatencyDistribution("gcc-like", samples)


def _compatible_allyes(corpus: KernelCorpus) -> List[str]:
    """allyesconfig minus #error-triggering combinations: the corpus
    makes FEATURE pairs mutually exclusive per driver, so drop the
    second member of each documented pair (like real allyesconfig,
    which cannot enable everything either — it covers <80% of blocks)."""
    banned = set()
    error_re = re.compile(
        r"#if defined\((\w+)\) && defined\((\w+)\)\s*\n#error")
    for text in corpus.files.values():
        for _first, second in error_re.findall(text):
            banned.add(second)
    return [name for name in corpus.config_variables
            if name not in banned]
