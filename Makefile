# Convenience targets for the Corleone reproduction.

PYTHON ?= python

.PHONY: install lint lint-fast test bench bench-smoke bench-shard bench-plan bench-e2e trace-report results examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# corlint: the repo's own AST-based invariant analyzer (see
# docs/static_analysis.md).  Exits nonzero on any non-baselined finding.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro --format text

# Diff-aware lint: only files changed since LINT_REF (default HEAD).
# Whole-program rules (CL012, CL014) are skipped on partial scans.
LINT_REF ?= HEAD
lint-fast:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --changed $(LINT_REF)

test: lint
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick substrate microbenches; refreshes the BENCH_substrates.json
# baseline (scalar vs batched feature-evaluation throughput), the
# BENCH_engine.json baseline (checkpoint overhead, event throughput),
# BENCH_faults.json (gateway overhead/recovery), BENCH_obs.json
# (run-telemetry instrumentation overhead), BENCH_shard.json
# (sharded blocking worker-scaling curve), BENCH_plan.json
# (plan-compiler fused blocking + memmap spill) and BENCH_storage.json
# (durable-storage fsync overhead + crash-recovery sweep).
bench-smoke:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_micro_substrates.py --benchmark-only \
		--benchmark-json=benchmarks/results/substrates_benchmark.json
	$(PYTHON) benchmarks/collect_results.py \
		--substrates benchmarks/results/substrates_benchmark.json
	$(PYTHON) benchmarks/collect_results.py --engine
	$(PYTHON) benchmarks/collect_results.py --faults
	$(PYTHON) benchmarks/collect_results.py --obs
	$(PYTHON) benchmarks/collect_results.py --shard
	$(PYTHON) benchmarks/collect_results.py --plan
	$(PYTHON) benchmarks/collect_results.py --storage

# The sharded blocking executor's 1/2/4/8-worker scaling curve and
# merge-determinism check (docs/architecture.md); refreshes
# BENCH_shard.json and benchmarks/results/shard_scaling.txt.
bench-shard:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/collect_results.py --shard

# The plan compiler's fused-blocking speedup and memmap spill
# behaviour, one fresh subprocess per variant for honest peak RSS
# (docs/architecture.md, "The plan compiler"); refreshes
# BENCH_plan.json and benchmarks/results/plan_compiler.txt.
bench-plan:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/collect_results.py --plan

# The whole-run benchmark declared in BENCHMARK.json: the Corleone
# workloads timed end to end with per-layer times (benchmarks/e2e/
# README.md).  Writes its set to benchmarks/e2e/.work/set.json;
# compare two sets with `python3 benchmarks/e2e/run.py compare A B`.
bench-e2e:
	python3 benchmarks/e2e/run.py

# Render the obs report (docs/observability.md) for the newest run
# directory under the repo — any directory holding a run.json; `make
# bench-smoke` leaves one at benchmarks/results/obs_run.
trace-report:
	@run_dir=$$(find . -path ./.git -prune -o -name run.json \
		-printf '%T@ %h\n' | sort -rn | head -1 | cut -d' ' -f2-); \
	if [ -z "$$run_dir" ]; then \
		echo "no run directories found — run 'make bench-smoke' first"; \
		exit 1; \
	fi; \
	echo "== $$run_dir"; \
	PYTHONPATH=src $(PYTHON) -m repro.obs report "$$run_dir"

results: bench
	$(PYTHON) benchmarks/collect_results.py

# Run every example end-to-end (several minutes of simulated crowdwork).
examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf benchmarks/results benchmarks/.cache .pytest_cache .hypothesis .corlint_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
