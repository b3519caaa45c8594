# Developer entry points. `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test bench-check lint analyze ruff mypy perf-gate trace-demo trace-smoke fuzz fuzz-quick codegen-check gap-check cache-smoke serve-smoke

check: test bench-check ruff mypy lint analyze fuzz-quick codegen-check gap-check cache-smoke serve-smoke trace-smoke

# Scheduler-service smoke: boot `repro serve` as a real subprocess,
# fire a concurrent zipf-skewed loadgen burst at it, and gate on
# healthz + zero errors + cache hit-rate (the --check assertions,
# which include at least one cached replay).  Run once per worker
# mode, each with its own port and cache directory; the server is
# stopped with SIGTERM and waited for, which closes its worker pool.
# $(call serve_smoke,MODE,PORT,CACHE_DIR)
define serve_smoke
	rm -rf $(3)
	@set -e; \
	$(PYTHON) -m repro.cli serve --port $(2) \
		--cache-dir $(3) --mode $(1) --jobs 4 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		if $(PYTHON) -c "import socket; socket.create_connection(('127.0.0.1', $(2)), 0.5).close()" 2>/dev/null; then break; fi; \
		sleep 0.2; \
	done; \
	$(PYTHON) -m repro.cli loadgen --host 127.0.0.1 --port $(2) \
		--clients 100 --requests 3 --distinct 8 --check
	rm -rf $(3)
endef

serve-smoke:
	$(call serve_smoke,thread,8799,.serve-smoke-cache)
	$(call serve_smoke,process,8798,.serve-smoke-cache-process)

# Persistent-cache smoke: fill a throwaway cache directory, check the
# stats/clear plumbing end to end.
cache-smoke:
	rm -rf .cache-smoke
	$(PYTHON) -m repro.cli corpus --seeds 3 --cache-dir .cache-smoke > /dev/null
	$(PYTHON) -m repro.cli cache stats --cache-dir .cache-smoke
	$(PYTHON) -m repro.cli cache clear --cache-dir .cache-smoke
	rm -rf .cache-smoke

test:
	$(PYTHON) -m pytest -x -q

# The shape assertions of the paper benchmarks (Table 1, Figure 6, the
# ablations) with timing off: each benchmarked call runs once.
bench-check:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

# Scheduler-output static analysis over every bundled experiment, all
# three schedulers. Fails on any error-severity diagnostic.
lint:
	$(PYTHON) -m repro.cli lint all --scheduler basic
	$(PYTHON) -m repro.cli lint all --scheduler ds
	$(PYTHON) -m repro.cli lint all --scheduler cds

# Timing-aware hazard analysis: every experiment x scheduler under the
# sound (default, contexts_first) DMA ordering, plus the pinned fuzz
# reproducers, must be free of HAZ findings.  The JSON reports are CI
# artifacts.
analyze:
	$(PYTHON) -m repro.cli analyze all --scheduler all \
		--output analyze-report.json
	$(PYTHON) -m repro.cli analyze corpus \
		--output analyze-corpus-report.json

# Differential fuzzing: adversarial workload regimes cross-checked by
# the oracle stack.  `fuzz-quick` (CI) round-robins seeds across the
# regime matrix; failures are shrunk and written to fuzz-failures/,
# which CI uploads as an artifact.
fuzz:
	$(PYTHON) -m repro.cli fuzz --seeds 500 --jobs 0 \
		--failures-dir fuzz-failures

fuzz-quick:
	$(PYTHON) -m repro.cli fuzz --seeds 60 --quick --jobs 0 \
		--failures-dir fuzz-failures

# Templated-codegen equivalence gate: the golden property suite (500+
# program fuzz matrix, paper experiments, broken-schedule fallback,
# sequence-protocol edge cases), then a wide progequiv-oracle campaign
# — every generated schedule lowered by both codegen backends and
# cross-checked byte-for-byte, violation lists included.  Failures
# shrink into fuzz-codegen-failures/ (a CI artifact).
codegen-check:
	$(PYTHON) -m pytest tests/codegen/test_templated_equivalence.py -q
	$(PYTHON) -m repro.cli fuzz --seeds 5000 --quick --jobs 0 \
		--no-functional --oracle progequiv \
		--failures-dir fuzz-codegen-failures

# Greedy-vs-exact optimality gate: a budgeted 500-seed exactgap
# campaign (every case scheduled by both the greedy CDS and the exact
# branch-and-bound solver; exact must never lose and feasibility
# verdicts must match byte-for-byte), then the gap table over the
# paper experiments, the pinned corpus and a seeded sweep.  The JSON
# table (gap-table.json) is a CI artifact; failures shrink into
# fuzz-gap-failures/.
gap-check:
	$(PYTHON) -m repro.cli fuzz --seeds 500 --quick --jobs 0 \
		--no-functional --oracle exactgap \
		--failures-dir fuzz-gap-failures
	$(PYTHON) -m repro.cli gap --seeds 25 --output gap-table.json

# CI's regression gate: the repository benchmark (perfbench) run on
# BASE (default: the last commit) and on this tree; fails when an
# end-to-end metric is worse by more than its BENCHMARK.json bound.
BASE ?= HEAD
perf-gate:
	$(PYTHON) tools/perf_gate.py $(BASE)

# Timeline export smoke: the exporter validates its own output, so a
# non-zero exit means the emitted trace_event JSON broke the documented
# schema; the text timeline, decision log, profile and Gantt renderers
# must run too, the profile must count rounds the simulator stamped by
# shift (the steady-state path is on) and time program verification on
# its own non-zero row, the corpus profile must time the
# HAZ001 race pass on its own row and count the blocks the templated
# lowering built and the placements the allocator chained, and the
# Gantt chart must draw its DMA lane.
trace-smoke:
	$(PYTHON) -m repro.cli trace ATR-FI --output trace_ATR-FI.json
	$(PYTHON) -m repro.cli trace MPEG --format text --decisions > /dev/null
	$(PYTHON) -m repro.cli run E1 --profile \
		| grep -E 'rounds_shifted +[1-9]' > /dev/null
	$(PYTHON) -m repro.cli run E1 --profile \
		| grep -E 'pipeline\.cds/verify +[0-9.]*[1-9]' > /dev/null
	set -e; profile=$$($(PYTHON) -m repro.cli corpus --seeds 2 --fb 16K \
		--iterations 48 --profile); \
	echo "$$profile" | grep -E 'analysis/races +[0-9.]*[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/interference +[0-9.]*[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/rows +[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/allocate +[0-9.]*[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/placements +[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/chained +[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/segments +[1-9]' > /dev/null; \
	echo "$$profile" | grep -E 'analysis/blocks +[1-9]' > /dev/null
	$(PYTHON) -m repro.cli run E1 --gantt | grep '  DMA  |' > /dev/null

# Sample Chrome trace_event export — open trace_ATR-FI.json at
# https://ui.perfetto.dev or in chrome://tracing.
trace-demo:
	$(PYTHON) -m repro.cli trace ATR-FI --output trace_ATR-FI.json

# ruff / mypy run only where installed — the pinned container image
# ships neither, and nothing may be pip-installed into it.
ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools; \
	else \
		echo "ruff not installed; skipping"; \
	fi

mypy:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping"; \
	fi
