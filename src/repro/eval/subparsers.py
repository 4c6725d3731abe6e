"""Subparser-count measurements: Figure 8.

The number of subparsers per iteration of FMLR's main loop captures
both fork pressure (breadth of conditionals) and merge success
(incidence of partial C constructs in conditionals).  Figure 8a
reports the 99th percentile and maximum across all iterations of all
compilation units, per optimization level; Figure 8b the cumulative
distribution.  MAPR triggers a kill switch (the paper uses 16,000) on
most units.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.corpus import KernelCorpus
from repro.engine.results import percentile
from repro.obs.tracer import Tracer
from repro.parser.fmlr import (FMLROptions, OPTIMIZATION_LEVELS,
                               SubparserExplosion)
from repro.superc import SuperC


class SubparserDistribution:
    """Pooled per-iteration subparser counts for one optimization
    level, plus the corpus-total fork and merge event counts."""

    def __init__(self, level: str, counts: List[int],
                 exploded_units: int, total_units: int,
                 kill_switch: int, forks: int = 0, merges: int = 0):
        self.level = level
        self.counts = counts
        self.exploded_units = exploded_units
        self.total_units = total_units
        self.kill_switch = kill_switch
        self.forks = forks
        self.merges = merges

    @property
    def maximum(self) -> int:
        return max(self.counts) if self.counts else 0

    def percentile(self, p: float) -> int:
        return percentile(self.counts, p) if self.counts else 0

    @property
    def p99(self) -> int:
        return self.percentile(0.99)

    def cdf(self, points: Optional[List[int]] = None) \
            -> List[Tuple[int, float]]:
        """Cumulative distribution: fraction of iterations with count
        <= x (Figure 8b)."""
        if not self.counts:
            return []
        ordered = sorted(self.counts)
        if points is None:
            points = sorted(set(ordered))
        total = len(ordered)
        out: List[Tuple[int, float]] = []
        index = 0
        for point in points:
            while index < total and ordered[index] <= point:
                index += 1
            out.append((point, index / total))
        return out

    def describe(self) -> str:
        if self.exploded_units:
            return (f">{self.kill_switch} on "
                    f"{100 * self.exploded_units // self.total_units}% "
                    "of comp. units")
        return f"99th%={self.p99}  max={self.maximum}"


def measure_level(corpus: KernelCorpus, level: str,
                  options: Optional[FMLROptions] = None,
                  kill_switch: int = 16000) -> SubparserDistribution:
    """Parse every unit at one optimization level, pooling counts."""
    base = options or OPTIMIZATION_LEVELS[level]
    opts = FMLROptions(follow_set=base.follow_set,
                       lazy_shifts=base.lazy_shifts,
                       shared_reduces=base.shared_reduces,
                       early_reduces=base.early_reduces,
                       mapr_largest_first=base.mapr_largest_first,
                       choice_merging=base.choice_merging,
                       kill_switch=kill_switch,
                       # The benchmark reports explosions, so keep the
                       # legacy abort instead of graceful shedding.
                       hard_kill_switch=True)
    # The measurement is driven entirely by repro.obs hooks: the FMLR
    # loop records each iteration's live-subparser count into the
    # ``fmlr.subparsers`` histogram and counts fork/merge events, so
    # this benchmark observes the same stream any traced run produces
    # (and the two can be cross-checked against each other).
    tracer = Tracer()
    superc = SuperC(corpus.filesystem(),
                    include_paths=corpus.include_paths, options=opts,
                    tracer=tracer)
    counts: List[int] = []
    exploded = 0
    for unit in corpus.units:
        mark = tracer.mark()
        try:
            result = superc.parse_file(unit)
            if result.parse.stats.kill_switch_trips:
                exploded += 1
            # Pool this unit's iteration counts from its tracer window
            # (exploded units contribute no counts, as before).
            window = tracer.since(mark)
            counts.extend(
                int(value) for value
                in window["histograms"].get("fmlr.subparsers", ()))
        except SubparserExplosion:
            exploded += 1
    return SubparserDistribution(level, counts, exploded,
                                 len(corpus.units), kill_switch,
                                 forks=tracer.counters.get(
                                     "fmlr.forks", 0),
                                 merges=tracer.counters.get(
                                     "fmlr.merges", 0))


def figure8(corpus: KernelCorpus,
            levels: Optional[List[str]] = None,
            kill_switch: int = 16000) \
        -> Dict[str, SubparserDistribution]:
    """All optimization levels of Figure 8."""
    chosen = levels if levels is not None else list(OPTIMIZATION_LEVELS)
    return {level: measure_level(corpus, level,
                                 kill_switch=kill_switch)
            for level in chosen}
