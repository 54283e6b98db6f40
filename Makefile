# Convenience targets for the LiMiT reproduction.

PYTHON ?= python

.PHONY: install test experiments experiments-quick smoke examples lint lint-smoke outputs clean

install:
	pip install -e .

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

experiments:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --out results/full

experiments-quick:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --quick

# end-to-end gates from one set of recorded runs (eight legs of the quick
# suite and the checks in repro.experiments.smoke), then the streaming
# path's 5% overhead cap; the CI smoke job runs the same two commands
smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.smoke --dir results/smoke
	PYTHONPATH=src $(PYTHON) -m repro.bench --quick

examples:
	@for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

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
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
