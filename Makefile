# Developer entry points. Everything runs from the repo root with the
# in-tree package (no install required).

PYTHON ?= python
RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON)

# Tag stamped into the BENCH_*.json artifacts written by `make bench`.
BENCH_TAG ?= PR10

.PHONY: test lint test-crash bench-smoke perfbench-smoke bench bench-parallel bench-shards bench-feedback bench-index bench-ingest bench-wal bench-kernels bench-obs bench-history docs-check examples

## tier-1 test suite (the gate every change must keep green)
test:
	$(RUN) -m pytest -x -q

## lint gate (ruff; configured in pyproject.toml)
lint:
	$(RUN) -m ruff check .

## crash-recovery matrix: kills real CLI runs at every fault point in a
## subprocess and asserts recovery (also part of `make test`; this target
## runs just the durability suites, verbosely)
test-crash:
	$(RUN) -m pytest tests/test_crash_recovery.py tests/test_wal.py \
	    tests/test_mutation_properties.py tests/test_concurrent_writers.py -q

## quick benchmark pass: service throughput + parallel-scan assertions + one
## paper figure, correctness checks only (the wall-clock speedup assertion is
## deselected here and lives in bench-parallel)
bench-smoke:
	$(RUN) -m pytest benchmarks/bench_service_throughput.py \
	    benchmarks/bench_parallel_scan.py \
	    benchmarks/bench_sharded_scan.py \
	    benchmarks/bench_feedback_replan.py \
	    benchmarks/bench_index_pruning.py \
	    benchmarks/bench_ingest.py \
	    benchmarks/bench_wal_overhead.py \
	    benchmarks/bench_kernel_fusion.py \
	    benchmarks/bench_obs_overhead.py \
	    benchmarks/bench_history_overhead.py \
	    benchmarks/bench_fig4a_selectivity.py -q --benchmark-disable \
	    -k "not speedup and not overhead"

## repo benchmark harness smoke: every perfbench workload for 3 s, untraced
## and traced; fails on a non-zero exit (for example when a function that
## perfbench/layers.py wraps is renamed)
perfbench-smoke:
	for workload in job-adhoc job-served ingest; do \
	    for trace in 0 1; do \
	        echo "== $$workload trace=$$trace"; \
	        $(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 3 \
	            --trace $$trace || exit 1; \
	    done; \
	done

## morsel-driven parallel execution: speedup assertion (needs >= 2 CPU
## cores; the timing test self-skips on single-core hosts) plus timed runs
bench-parallel:
	$(RUN) -m pytest benchmarks/bench_parallel_scan.py -q

## shared-nothing sharded execution: the >= 2x-at-4-shards speedup assertion
## (needs >= 4 CPU cores; self-skips below that) plus timed runs, persists
## its measurements into the current BENCH_*.json (the byte-identity half
## also runs in bench-smoke)
bench-shards:
	$(RUN) -m pytest benchmarks/bench_sharded_scan.py -q

## feedback-driven re-planning: work + wall-clock assertions, persists
## its measurements into the current BENCH_*.json
bench-feedback:
	$(RUN) -m pytest benchmarks/bench_feedback_replan.py -q

## access-path pruning: page-count + wall-clock assertions, persists its
## measurements into BENCH_PR4.json (the page assertion also runs in
## bench-smoke; this target adds the timing half)
bench-index:
	$(RUN) -m pytest benchmarks/bench_index_pruning.py -q

## mutation ingest: incremental-vs-rebuild maintenance ratio plus the warm
## query latency guard on a mutated table (the ratio half also runs in
## bench-smoke; this target adds the latency half)
bench-ingest:
	$(RUN) -m pytest benchmarks/bench_ingest.py -q

## WAL durability price: commit-latency overhead with fsync on and off
## (the equivalence half also runs in bench-smoke; this target adds the
## timing guard), persists its measurements into the current BENCH_*.json
bench-wal:
	$(RUN) -m pytest benchmarks/bench_wal_overhead.py -q

## fused expression kernels: clause-work + byte-identity assertions plus the
## dictionary string-predicate wall-clock guard (the work half also runs in
## bench-smoke; this target adds the timing half), persists its
## measurements into the current BENCH_*.json
bench-kernels:
	$(RUN) -m pytest benchmarks/bench_kernel_fusion.py -q

## observability price: metrics-publication and tracing overhead guards
## (the three-way equivalence half also runs in bench-smoke; this target
## adds the timing guards), persists its measurements into the current
## BENCH_*.json
bench-obs:
	$(RUN) -m pytest benchmarks/bench_obs_overhead.py -q

## workload-history price: statistics + journal + regression detection
## overhead guard (the equivalence half also runs in bench-smoke; this
## target adds the timing guard), persists its measurements into the
## current BENCH_*.json
bench-history:
	$(RUN) -m pytest benchmarks/bench_history_overhead.py -q

## full benchmark suite with timing (slow); always leaves a BENCH_*.json
## artifact behind so the perf trajectory is tracked
bench:
	$(RUN) -m pytest benchmarks -q --benchmark-json=BENCH_$(BENCH_TAG).pytest.json

## docs gates: every public module has a docstring, README examples execute
docs-check:
	$(RUN) scripts/docs_check.py

## run every example end to end (examples bootstrap their own sys.path)
examples:
	for script in examples/*.py; do \
	    echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done
