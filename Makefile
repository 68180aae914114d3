# Developer entry points.  `make check` is the gate every change must
# pass: the tier-1 test suite plus lint (when ruff is installed).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

.PHONY: check test fast bench bench-smoke bench-trend examples perfbench-check perf-ab trace-diff profile lint detlint detlint-report loc

## The tier-1 gate: full unit suite + lint + determinism linter.
check: test lint detlint

## Full unit test suite (tier-1 command).
test:
	$(PYTEST) -x -q

## Fast loop: unit tests without anything marked slow.
fast:
	$(PYTEST) -x -q -m "not slow"

## Paper-figure benchmark sweeps (slow; writes benchmarks/results/).
## Knobs (also honored as plain environment variables):
##   make bench WORKERS=8              # worker process count
##   make bench CACHE_DIR=.bench-cache # persistent spec-hash result cache,
##                                     # reused across invocations
WORKERS ?= $(WHITEFI_BENCH_WORKERS)
CACHE_DIR ?= $(WHITEFI_BENCH_CACHE_DIR)
bench:
	WHITEFI_BENCH_WORKERS="$(WORKERS)" \
	WHITEFI_BENCH_CACHE_DIR="$(CACHE_DIR)" \
	$(PYTEST) -q benchmarks

## Smoke-run the wsdb benchmark drivers with tiny parameters (CI runs
## this so sweep drivers cannot silently rot between full `make bench`
## invocations; paper-scale assertions are skipped).
bench-smoke:
	WHITEFI_BENCH_SMOKE=1 \
	WHITEFI_BENCH_WORKERS="$(WORKERS)" \
	$(PYTEST) -q benchmarks/bench_citywide_wsdb.py \
	    benchmarks/bench_roaming_wsdb.py benchmarks/bench_wsdb_cluster.py \
	    benchmarks/bench_scale.py benchmarks/bench_trace_replay.py
	PYTHONPATH=$(PYTHONPATH) python scripts/profile_run.py \
	    --kind querystorm --clients 300 --duration-us 20e6 \
	    --out benchmarks/results/telemetry-smoke
	python scripts/metrics_report.py \
	    benchmarks/results/telemetry-smoke.metrics.json
	python scripts/span_report.py \
	    benchmarks/results/telemetry-smoke.spans.jsonl

## Run every examples/*.py script end to end (~10 s).  The examples
## build specs through the public flat-keyword API, so this catches a
## spec-layer change that lint alone would not.  They write nothing
## into the tree (seed_sweep caches under $TMPDIR).
examples:
	@for f in examples/*.py; do \
		echo "examples: $$f"; \
		PYTHONPATH=$(PYTHONPATH) python $$f > /dev/null || exit 1; \
	done

## Profile a 10k-client vector roaming run: per-phase wall-clock
## breakdown (JSON + Chrome trace-event timeline), the sim-clock
## metrics snapshot (JSON + Prometheus), and the span table
## (JSONL + Chrome trace events), written under
## benchmarks/results/profile.*.
profile:
	PYTHONPATH=$(PYTHONPATH) python scripts/profile_run.py \
	    --kind roaming --clients 10000 --out benchmarks/results/profile

## Run every benchmark workload's checks at seed 0: the check pass plus
## the three minimum repetitions (report invariants, the brute-force
## served-response safety sample, scalar/vector parity).  Exits 1 on
## any failed check.
PERFBENCH_WORKLOADS := roam storm churn whitefi
perfbench-check:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-check: $$w"; \
		python3 perfbench/run.py --workload $$w --seed 0 --seconds 0 \
		    --trace 0 || exit 1; \
	done

## Same-host A/B of one perfbench workload against a git ref: PAIRS
## alternating base/change runs, median and IQR per side, change wins
## per metric; exit 1 when a seed's report digest differs.
##   make perf-ab BASE=HEAD~1 WORKLOAD=whitefi PAIRS=10
BASE ?= HEAD
WORKLOAD ?= whitefi
PAIRS ?= 10
perf-ab:
	python3 scripts/perf_ab.py --base $(BASE) --workload $(WORKLOAD) \
	    --pairs $(PAIRS)

## Compare the last two comparable BENCH_scale.json entries; fails on a
## >20% clients/sec regression (no-op with nothing to compare).
bench-trend:
	python scripts/bench_trend.py

## Diff two recorded run traces event-by-event (exit 1 on any delta):
##   make trace-diff A=path/to/a.jsonl.gz B=path/to/b.jsonl.gz
trace-diff:
	PYTHONPATH=$(PYTHONPATH) python scripts/trace_diff.py $(A) $(B)

## Determinism & clock-discipline linter (repro.detlint): fails on any
## unsuppressed finding against detlint.toml + detlint.baseline.json.
## Stdlib-only, so it runs in a bare container.  Also writes the JSON
## findings artifact CI uploads.
detlint:
	PYTHONPATH=$(PYTHONPATH) python -m repro.detlint \
	    --out benchmarks/results/detlint.json

## Code lines per file (docstrings, comments and blank lines excluded)
## and the totals for src/repro/wsdb and src/repro/experiments — the
## size ROADMAP's "same reports from less code" aim is measured in.
## Reports only; never gates.
loc:
	python scripts/loc.py src/repro/wsdb src/repro/experiments

## Per-rule / per-package suppression-debt tables (never gates).
detlint-report:
	python scripts/detlint_report.py

## Lint src and tests.  The container may not ship ruff; skip with a
## notice rather than fail, so `make check` works everywhere.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif python -c "import ruff" >/dev/null 2>&1; then \
		python -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi
