# Convenience targets for the jxta-repro repository.

PYTHON ?= python
# worker pool width for campaign sweeps (make experiments JOBS=8)
JOBS ?= $(shell $(PYTHON) -c "import os; print(os.cpu_count() or 1)")

.PHONY: install test smoke-faults smoke-campaign smoke-load fuzz-smoke coverage bench bench-e2e bench-e2e-quick bench-e2e-pairs heap-census profile examples experiments experiments-full load-full clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# pythonpath = ["src"] in pyproject.toml makes the src layout
# importable without an install or a manual PYTHONPATH prefix
test:
	$(PYTHON) -m pytest -x -q

smoke-faults:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.faults_exp --smoke

# campaign orchestrator acceptance checks: parallel determinism,
# kill-mid-flight + --resume, >= 2x speedup at --jobs 4 (needs 4 CPUs)
smoke-campaign:
	$(PYTHON) scripts/campaign_smoke.py

# workload subsystem acceptance checks: 40-rdv load run with SLO
# assertions, record/replay oracle, and sweep --jobs parallel
# determinism (see docs/WORKLOADS.md)
smoke-load:
	$(PYTHON) scripts/load_smoke.py

# fuzzer acceptance checks: find+shrink on the expire-leak mutant (a
# copy of src/, scripts/mutants.py), committed-corpus replay,
# fuzz-digest identity across --jobs (see docs/FUZZING.md)
fuzz-smoke:
	$(PYTHON) scripts/fuzz_smoke.py

# line coverage of src/repro with a floor (CI installs pytest-cov;
# locally this is a no-op with a hint when the plugin is missing)
COV_FLOOR ?= 70
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null \
		|| { echo "pytest-cov not installed; skipping (pip install pytest-cov)"; exit 0; } \
		&& $(PYTHON) -m pytest -q --cov=repro --cov-report=term \
			--cov-fail-under=$(COV_FLOOR)

# Runs the kernel/protocol benchmarks and appends the numbers to the
# committed trajectory (BENCH_kernel.json).  Override BENCH_LABEL to
# tag the entry, e.g. `make bench BENCH_LABEL="PR 3"`.  The fuzz slice
# runs four more times and records its best of five, as CI's floor
# reads it: one invocation spreads too widely to compare.
BENCH_LABEL ?= workspace
BENCH_FUZZ_REPORTS = $(foreach i,1 2 3 4,.benchmarks/fuzz-$(i).json)

bench:
	mkdir -p .benchmarks
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=.benchmarks/latest.json
	for report in $(BENCH_FUZZ_REPORTS); do \
		$(PYTHON) -m pytest benchmarks/test_bench_fuzz.py --benchmark-only \
			--benchmark-json=$$report -q || exit 1; \
	done
	$(PYTHON) scripts/bench_trajectory.py record .benchmarks/latest.json \
		$(BENCH_FUZZ_REPORTS) --label "$(BENCH_LABEL)"
	$(PYTHON) scripts/bench_trajectory.py show

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md):
# five named workloads, host end-to-end metrics, per-layer metrics from
# a traced run, and the correctness gate; writes
# .benchmarks/bench/result.json for `python -m bench compare`.  The
# quick form runs toy sizes in seconds: same plumbing and gate, numbers
# that mean nothing.
bench-e2e:
	PYTHONPATH=src $(PYTHON) -m bench run

bench-e2e-quick:
	PYTHONPATH=src $(PYTHON) -m bench run --quick

# The rule a performance claim follows, as one command: PAIRS
# alternating runs of BASE (a git revision, unpacked with `git archive`
# under .benchmarks/pairs/) and of the working tree, pooled by
# `python -m bench compare`, every run listed.  Repeat with SEED=2.
#   make bench-e2e-pairs BASE=HEAD~1 WORKLOADS=peerview-580
BASE ?= HEAD
WORKLOADS ?= peerview-580,discovery-flat,discovery-walk,publish-heavy,fuzz-batch
PAIRS ?= 10
SEED ?= 1
bench-e2e-pairs:
	$(PYTHON) scripts/bench_pairs.py --base $(BASE) --workloads $(WORKLOADS) \
		--pairs $(PAIRS) --seed $(SEED)

# Where one end-to-end workload's memory is at the end of its window
# (tracemalloc top lines and window growth, GC-tracked objects by type)
# and what the collector costs there (every pass: generation, ms, inside
# or outside Simulator.run).  Sizes a memory claim before it is made.
#   make heap-census WORKLOAD=publish-heavy [SEED=2]
WORKLOAD ?= publish-heavy
heap-census:
	$(PYTHON) scripts/heap_census.py $(WORKLOAD) --seed $(SEED)

# Memory/allocation profile of the benchmark workloads: runs them once
# under tracemalloc (several times slower than `make bench`, so the
# timings are NOT recorded) and prints peak RSS, tracemalloc peak and
# allocation-block counts per benchmark from the JSON export.
profile:
	mkdir -p .benchmarks
	REPRO_BENCH_TRACEMALLOC=1 $(PYTHON) -m pytest benchmarks/ \
		--benchmark-only --benchmark-json=.benchmarks/profile.json
	$(PYTHON) scripts/bench_trajectory.py memory .benchmarks/profile.json

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; \
		PYTHONPATH=src $(PYTHON) $$f || exit 1; \
	done

# Both targets run through the repro.campaign orchestrator: one task
# per experiment module, $(JOBS) workers, crash-safe JSONL store under
# <out>/campaign/.  A killed run continues where it died:
#   PYTHONPATH=src $(PYTHON) -m repro.experiments.cli sweep all --out results-ci --resume

# reduced, shape-preserving runs of every paper artefact (minutes)
experiments:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli sweep all \
		--jobs $(JOBS) --out results-ci

# paper-scale runs: 580 peers, two-hour timelines, full sweeps
# (~1 h serial; scales down with $(JOBS))
experiments-full:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli sweep all --full \
		--jobs $(JOBS) --out results

# the acceptance-floor load run: >= 100k open-loop requests at r = 150
# with p50/p95/p99 + timeout-rate reporting (minutes of wall clock)
load-full:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli load --full

clean:
	rm -rf .pytest_cache .benchmarks results-ci campaign-runs
	find . -name __pycache__ -type d -exec rm -rf {} +
