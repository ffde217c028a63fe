PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline bench bench-parallel bench-service \
	bench-sqlengine bench-analyzer bench-obs bench-cache bench-cluster \
	bench-e2e bench-pairs serve serve-cluster experiments

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

# Full reproduction run: every benchmark regenerates a table/figure.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Sequential vs 4-worker executor on simulated per-token latency.
bench-parallel:
	$(PYTHON) -m repro.experiments parallel

# Service throughput with vs without cross-request micro-batching.
bench-service:
	$(PYTHON) -m repro.experiments service

# The optimized SQL row path vs the naive oracle, three workloads,
# byte-identity checked (writes BENCH_sqlengine.json).
bench-sqlengine:
	$(PYTHON) -m repro.experiments sqlengine

# Static analyzer overhead and rejection counts on a seeded corpus of
# invalid queries (writes BENCH_analyzer.json).
bench-analyzer:
	$(PYTHON) -m repro.experiments analyzer

# Tracing overhead on the SQL agent-trace workload — the observability
# layer's ≤5% contract (writes BENCH_obs.json).
bench-obs:
	$(PYTHON) -m repro.experiments obs

# Cold vs warm persistent-L2 verification — the ≥3× restart contract
# (writes BENCH_cache.json).
bench-cache:
	$(PYTHON) -m repro.experiments cache

# Saturation throughput and p99, 1 process vs 4 sharded workers behind
# the consistent-hash router (writes BENCH_cluster.json).
bench-cluster:
	$(PYTHON) -m repro.experiments cluster

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
