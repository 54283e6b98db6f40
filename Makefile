# Convenience targets for the LiMiT reproduction.

PYTHON ?= python

.PHONY: install test experiments experiments-quick trace-smoke traffic-smoke fault-smoke resilience-smoke analysis-smoke examples lint lint-smoke clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

experiments:
	$(PYTHON) -m repro.experiments --out results/full

experiments-quick:
	$(PYTHON) -m repro.experiments --quick

# quick observability end-to-end check: run E1, write a manifest and traces,
# then summarize the captured event stream
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --quick E1 \
		--manifest results/smoke/manifest.json --trace-dir results/smoke/traces
	PYTHONPATH=src $(PYTHON) -m repro.trace summarize results/smoke/traces/e1.quick.jsonl

# streaming observability end-to-end check: a CI-sized E19 traffic run
# under the strict lint gate with live windowed export, then tail the
# stream with the trace CLI, then check the streaming path's 5% overhead
# cap (the CI job additionally asserts bounded collector memory and exact
# reconciliation from the manifest)
traffic-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --quick E19 --lint-strict \
		--stream-dir results/smoke/streams \
		--manifest results/smoke/traffic-manifest.json \
		--window-cycles 2000000 --window-retention 8
	PYTHONPATH=src $(PYTHON) -m repro.trace tail results/smoke/streams/e19 -n 5
	PYTHONPATH=src $(PYTHON) -m repro.bench --quick

# robustness end-to-end check: the fault matrix with its manifest ledger,
# plus the fabric chaos and fault-injector test files
fault-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --quick E17 \
		--keep-going --manifest results/smoke/fault-manifest.json
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/fabric/test_failures.py \
		tests/faults tests/properties/test_fault_injection.py

# resilience end-to-end check: the E20 policy matrix twice (serial under
# the strict lint gate, and --jobs 2) with per-run fingerprints; the legs
# must be bit-identical with equal alerts blocks, burn-rate alerts must
# page only on the unprotected arm's overload windows, and shedding must
# hold p99 below the unprotected collapse
resilience-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.resilience_smoke \
		--dir results/smoke/resilience

# declarative-analysis end-to-end check: AN rules over the shipped
# declarations, then quick E21 three ways (strict gate, --jobs 2,
# --no-analysis) plus the classified quick suite; legs must be
# fingerprint-identical with bit-identical verdicts and >= 1 genuine
# refutation with a concrete counterexample
analysis-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.lint analysis --strict
	PYTHONPATH=src $(PYTHON) -m repro.experiments.analysis_smoke \
		--dir results/smoke/analysis

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

# full static gate: the repo's own measurement-hazard analyzer over every
# target (self + registry + workload corpus), then ruff/mypy when they are
# installed (the CI lint job always has them; local environments may not)
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint all --strict
	@if command -v ruff >/dev/null 2>&1; then ruff check .; \
		else echo "ruff not installed; skipping (see pyproject.toml)"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
		else echo "mypy not installed; skipping (see pyproject.toml)"; fi

# fast pre-push check: repo self-analysis + registry metadata only, plus a
# strict-gated quick run of the lint-validation experiment
lint-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.lint self --strict
	PYTHONPATH=src $(PYTHON) -m repro.lint registry --strict
	PYTHONPATH=src $(PYTHON) -m repro.experiments --quick --lint-strict E18

# final artifacts, as specified in the reproduction brief
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
