PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline bench bench-e2e bench-pairs serve \
	serve-cluster experiments

test:
	$(PYTHON) -m pytest -x -q

# cedarlint (docs/static-analysis.md) always runs; ruff and mypy run
# when installed, with their configuration in pyproject.toml.
lint:
	$(PYTHON) tools/lint.py

# Regenerate tools/cedarlint/baseline.json from this tree's warnings.
# Refuses while any error-severity finding remains, so the baseline
# only ever holds grandfathered warnings — and only ever shrinks.
lint-baseline:
	$(PYTHON) -m tools.cedarlint --write-baseline

# Paper shape checks: every benchmark regenerates a table/figure and
# asserts the paper's shape on it (CI gates on this target).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Claim in → verdict out through the real front doors: four workloads,
# every job checked against bench/golden/, then a traced per-layer set
# (bench/README.md; results under bench/out/).
bench-e2e:
	python3 bench/run.py

# Ten interleaved parent/HEAD pairs per workload, medians + quartiles +
# pairs won per end-to-end metric (tools/bench_pairs.py):
#   make bench-pairs PARENT=HEAD~1 PAIRS_ARGS="--workload cluster2-hot"
PARENT ?= HEAD~1
bench-pairs:
	python3 tools/bench_pairs.py --parent $(PARENT) $(PAIRS_ARGS)

# HTTP front end for the verification service (Ctrl-C drains and exits).
serve:
	$(PYTHON) -m repro.service

# Sharded multi-worker cluster: asyncio router + N worker processes
# (Ctrl-C drains every shard and exits).
serve-cluster:
	$(PYTHON) -m repro.cluster --workers 4

experiments:
	$(PYTHON) -m repro.experiments all --fast
