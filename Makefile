# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench figures examples clean lint lint-baseline typecheck sanitize-smoke gc-smoke batch-smoke perf-smoke serve-smoke

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Project-specific static analysis (RL001-RL014; see
# docs/STATIC_ANALYSIS.md).  Incremental (.repro_lint_cache.json) and
# parallel; fails on any non-baselined finding.
lint:
	$(PYTHON) -m tools.repro_lint src tools --jobs auto

# Deliberately re-capture the accepted-findings baseline.  Never run
# implicitly: review the resulting .repro_lint_baseline.json diff like
# code (every entry carries a justification).
lint-baseline:
	$(PYTHON) -m tools.repro_lint src tools --jobs auto --write-baseline

# mypy --strict over the canonical core plus the observability and
# batch-execution layers (config in pyproject.toml).  Skips gracefully
# when mypy is not installed (it is not a runtime or test dependency);
# CI installs it for the typecheck job.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
	    && MYPYPATH=src $(PYTHON) -m mypy -p repro.rings -p repro.dd \
	        -p repro.obs -p repro.exec \
	    || echo "mypy not installed; skipping (pip install mypy to run locally)"

# Fast end-to-end sanitizer run: simulate under check-every-op and fail
# on any invariant violation.
sanitize-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --algorithm grover \
	    --qubits 5 --system algebraic-gcd --mode check-every-op
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --algorithm grover \
	    --qubits 5 --system numeric --eps 1e-12 --mode check-every-op
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --algorithm grover \
	    --qubits 5 --system numeric --eps 1e-3 --mode check-every-op
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --algorithm grover \
	    --qubits 5 --system numeric --eps 1e-20 --mode check-every-op

# End-to-end garbage-collection run under a tight node budget, with
# the sanitizer on the final state (its root audit checks that every
# registered root and pin survived).  Exits non-zero on a
# MemoryBudgetExceeded or any root/invariant violation.
gc-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli gc --algorithm grover \
	    --qubits 8 --system algebraic-gcd --threshold 256 \
	    --max-nodes 800 --audit
	PYTHONPATH=src $(PYTHON) -m repro.cli gc --algorithm grover \
	    --qubits 8 --system numeric --eps 1e-12 --threshold 512 \
	    --max-nodes 1200 --audit

# End-to-end parallel batch run: the eps-tradeoff sweep fanned out over
# 4 worker processes, plus the determinism suite (workers=4 must be
# byte-identical to workers=1).  Exits non-zero on any job failure.
batch-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli batch --algorithm grover \
	    --qubits 5 --include-gcd --workers 4 --retries 1
	PYTHONPATH=src $(PYTHON) -m pytest tests/exec/test_batch.py -q

# Performance-observatory smoke: record fresh BENCH_*.json records for
# the small workloads, compare them against the committed baselines
# (informational -- regressions print but do not fail), and exercise a
# traced multi-process batch end-to-end.
perf-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli perf record \
	    --workloads ghz_16q,grover_5q --repeats 3 \
	    --out-dir benchmarks/results
	PYTHONPATH=src $(PYTHON) -m repro.cli perf compare \
	    --baseline-dir benchmarks/baselines \
	    --current-dir benchmarks/results --informational
	PYTHONPATH=src $(PYTHON) -m repro.cli batch --algorithm grover \
	    --qubits 5 --workers 2 \
	    --trace-out benchmarks/results/batch_trace.json

# End-to-end persistent-service run: the Grover workload through the
# warm-worker service twice per number system, in inline and in
# process mode, with --verify comparing every payload against the
# direct run path, plus the serve test suite.  Exits non-zero on any mismatch, failure or rejected request.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --workers 2 \
	    --qubits 5 --verify
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --mode process --workers 2 \
	    --qubits 5 --verify
	PYTHONPATH=src $(PYTHON) -m pytest tests/serve -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper figure table into benchmarks/results/.
figures:
	$(PYTHON) -m pytest benchmarks/bench_fig2_gse_size.py \
	    benchmarks/bench_fig3_grover.py benchmarks/bench_fig4_bwt.py \
	    benchmarks/bench_fig5_gse.py --benchmark-only

examples:
	@for script in examples/*.py; do \
	    echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

clean:
	rm -rf .pytest_cache benchmarks/results .hypothesis
	rm -f .repro_lint_cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
