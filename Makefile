# Developer/CI entry points.  PYTHONPATH=src keeps everything runnable
# without installation.
PY := PYTHONPATH=src python

.PHONY: test smoke-batch fuzz-smoke robustness-smoke trace-smoke \
	serve-smoke http-smoke chaos-smoke bench figure-gates perfbench \
	perfbench-selftest clean-cache

# Tier 1: the full unit-test suite (must stay green).
test:
	$(PY) -m pytest -x -q

# Tier 2: batch-engine smoke — generate the synthetic kernel corpus,
# fan it out over 2 workers with a deadline and retries, and require
# every unit to parse.  Catches engine/scheduler regressions in
# seconds without running the full benchmarks.
smoke-batch:
	$(PY) -m repro.tools.batch_cli --generate --seed 42 \
	    --workers 2 --timeout 60 --retries 1 --no-result-cache \
	    --metrics -

# Tier 2: differential-fuzzing smoke — generate 50 adversarial units
# and require the configuration-preserving pipeline and the
# single-configuration oracle to agree on every sampled configuration
# (tokens, errors, parses, ASTs).  Any disagreement is ddmin-shrunk
# and exits nonzero.
fuzz-smoke:
	$(PY) -m repro.tools.fuzz_cli --seed 0 --units 50 --timeout 60

# Tier 2: degradation smoke — run the fault-injection suite, then fuzz
# with the guarded-failure features (conditional #error / missing
# include) cranked up.  Confined failures must come back "degraded"
# with error agreement intact — never "crashed" — so the run exits 0.
robustness-smoke:
	$(PY) -m pytest -x -q tests/test_robustness.py
	$(PY) -m repro.tools.fuzz_cli --seed 0 --units 12 --timeout 60 \
	    --weight guarded_error=4 --weight guarded_missing_include=3

# Tier 2: observability smoke — trace the paper's Figure 1 mousedev
# example end-to-end with the repro.obs layer, check the emitted
# Chrome trace_event JSON against the format validator, and print the
# per-unit profile.  Then run the generated corpus through
# superc-batch twice into one result cache and require the second
# run's trace to be valid and to carry a result_cache.hits counter
# sample equal to its unit count.  Catches tracer/exporter/counter
# regressions in seconds.
trace-smoke:
	$(PY) -m repro.tools.parse_cli examples/mousedev.c \
	    -I examples/include --profile \
	    --trace /tmp/repro-trace-smoke.json
	$(PY) -c "import json, sys; \
	  from repro.obs import validate_chrome_trace; \
	  trace = json.load(open('/tmp/repro-trace-smoke.json')); \
	  problems = validate_chrome_trace(trace); \
	  sys.exit('invalid trace: ' + '; '.join(problems) \
	           if problems else 0); \
	  " && echo "trace-smoke: trace valid"
	rm -rf /tmp/repro-trace-smoke-cache
	for pass in 1 2; do \
	  $(PY) -m repro.tools.batch_cli --generate \
	      --cache-dir /tmp/repro-trace-smoke-cache \
	      --trace /tmp/repro-trace-smoke-batch$$pass.json >/dev/null \
	  || exit 1; done
	$(PY) -c "import json, sys; \
	  from repro.obs import validate_chrome_trace; \
	  trace = json.load(open('/tmp/repro-trace-smoke-batch2.json')); \
	  problems = validate_chrome_trace(trace); \
	  events = trace['traceEvents']; \
	  units = sum(1 for e in events if e['name'] == 'thread_name' \
	              and e['pid'] == 1); \
	  hits = [e['args']['value'] for e in events if e['ph'] == 'C' \
	          and e['name'] == 'result_cache.hits']; \
	  sys.exit('invalid trace: ' + '; '.join(problems) if problems \
	           else None if units and hits == [units] \
	           else f'result_cache.hits samples {hits} for {units} units'); \
	  " && echo "trace-smoke: warm batch trace counts every unit a hit"

# Tier 2: parse-daemon smoke — start a real repro.serve server on a
# Unix socket and drive the whole serve contract through the client:
# warm cache hit on the second identical request, reverse-invalidation
# re-parse after a shared-header edit, status=shed under an over-depth
# burst, and a graceful draining shutdown.  Exits nonzero on the first
# violated expectation.
serve-smoke:
	$(PY) -m repro.tools.serve_cli --smoke examples/mousedev.c \
	    -I examples/include

# Tier 2: HTTP-frontend smoke — start one daemon with a Unix socket
# *and* an HTTP listener off the same warm state, then drive
# parse/invalidate/stats/healthz over HTTP: 200 on /healthz, cache hit
# on the re-parse, and the socket client answering a byte-identical
# record for the unit HTTP warmed.  Exits nonzero on the first
# violated expectation.
http-smoke:
	$(PY) -m repro.tools.serve_cli --http-smoke examples/mousedev.c \
	    -I examples/include

# Tier 2: fault-tolerance smoke — run a pooled (2-worker) server under
# the deterministic repro.chaos fault plan: worker crash on request,
# hang past the deadline, corrupt cache blob, dropped client socket,
# ENOSPC on cache put, and a torn HTTP response body, then hard-kill
# the daemon and require the restarted one to resume warm-state
# short-circuiting from the journal (checked over HTTP).  Exits
# nonzero on the first violated expectation.
chaos-smoke:
	$(PY) -m repro.tools.serve_cli --chaos-smoke examples/mousedev.c \
	    -I examples/include

# Full benchmark suite (Tables 2-3, Figures 8-10, scaling + speedup).
bench:
	$(PY) -m pytest benchmarks -q

# The paper's figure shapes as regression gates: Figure 8 subparser
# bounds, Table 3 counts and the Figure 9 knee, plus the null-tracer
# gate that keeps the un-traced parse path cheap (~1 min).
figure-gates:
	$(PY) -m pytest benchmarks/bench_fig8.py benchmarks/bench_table3.py \
	    benchmarks/bench_fig9.py \
	    benchmarks/bench_scaling.py::test_null_tracer_overhead -q

# The repository benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics and correctness checks; see perfbench/README.md.
perfbench:
	python3 perfbench/run.py

# The benchmark harness's own tests, including its correctness gate
# (every workload emits its declared metrics, traced and untraced, and
# a corrupted record fails the run).
perfbench-selftest:
	$(PY) -m pytest perfbench/bench_harness.py -q

# Persistent caches (grammar tables, batch results) are derived data.
clean-cache:
	rm -rf $${REPRO_CACHE_DIR:-$$HOME/.cache/repro-superc}
