"""Evaluation instrumentation for the paper's tables and figures."""

from repro.eval.latency import (LatencyDistribution, LatencySample,
                                measure_gcc_like, measure_superc,
                                measure_typechef_proxy, unit_size_bytes)
from repro.eval.subparsers import (SubparserDistribution, figure8,
                                   measure_level)
from repro.eval.usage import (DirectiveCounts, TOOLS_VIEW_ROWS,
                              developers_view, found_paths, percentiles,
                              result_statistics, tools_view,
                              tools_view_table, top_included_headers,
                              unit_read_set, unit_statistics)

__all__ = [
    "DirectiveCounts", "LatencyDistribution", "LatencySample",
    "SubparserDistribution", "TOOLS_VIEW_ROWS", "developers_view",
    "figure8", "found_paths", "measure_gcc_like", "measure_level",
    "measure_superc", "measure_typechef_proxy", "percentiles",
    "result_statistics", "tools_view", "tools_view_table",
    "top_included_headers", "unit_read_set", "unit_size_bytes",
    "unit_statistics",
]
