"""Pipeline-wide observability: tracing, counters, and profiles.

SuperC's evaluation (§5, Tables 2–3, Figures 8–10) is a measurement
story — subparser counts, hoisting blowup, per-phase latency — and
this subsystem makes the same measurements fall out of any normal run
instead of special evaluation passes:

* :class:`Tracer` — a hierarchical span tracer
  (``tracer.span("preprocess")`` / ``span("fmlr")`` / …) plus a
  counters/histograms registry and instant events (FMLR fork/merge,
  kill-switch trips, confined diagnostics);
* :data:`NULL_TRACER` — the zero-overhead default: every hook is a
  no-op on a shared singleton, so the un-traced hot path allocates no
  event objects (guarded by ``benchmarks/bench_scaling.py``);
* :class:`Profile` — the per-unit digest attached to
  ``SuperCResult.profile``: per-phase wall time, BDD/LALR/cache
  counters, and histogram summaries, aggregated by ``repro.engine``
  into corpus rollups;
* exporters — Chrome ``trace_event`` JSON (open in ``chrome://tracing``
  or Perfetto), a plain-text flamegraph, and the trace validator used
  by the ``trace-smoke`` Make target;
* :class:`Counters` — the process counters of one daemon or one
  batch run (``repro.obs.counters``): a locked name -> int registry
  that the serve components and the result cache count into.  The
  daemon's ``stats`` op is its snapshot (split on ``.`` by
  :func:`nest`), and :func:`to_chrome_trace` emits the same values as
  ``"ph": "C"`` samples, so ``stats`` and the trace tell one recovery
  story: ``pool.{spawns,crashes,restarts,recycles}``,
  ``pool.breaker.trips``, ``journal.{resumed,discarded}``,
  ``result_cache.corrupt`` (exercised by the ``chaos-smoke`` Make
  target).  Per-unit pipeline counters (``fmlr.*``, ``bdd.*``,
  ``cpp.*``) stay on the tracer: they are a per-unit window, not
  process totals.

Typical use::

    from repro.obs import Tracer, to_chrome_trace

    tracer = Tracer()
    superc = SuperC(fs, tracer=tracer)
    result = superc.parse_source(source, "unit.c")
    result.profile.format_summary()        # per-phase + counters
    json.dump(to_chrome_trace(tracer), open("trace.json", "w"))
"""

from repro.obs.counters import Counters, nest
from repro.obs.exporters import (format_flamegraph, records_to_chrome_trace,
                                 to_chrome_trace, validate_chrome_trace,
                                 write_chrome_trace)
from repro.obs.profile import Profile
from repro.obs.tracer import (NULL_TRACER, NullTracer, Span, TraceEvent,
                              Tracer)

__all__ = [
    "Counters", "NULL_TRACER", "NullTracer", "Profile", "Span",
    "TraceEvent", "Tracer", "format_flamegraph", "nest",
    "records_to_chrome_trace", "to_chrome_trace",
    "validate_chrome_trace", "write_chrome_trace",
]
