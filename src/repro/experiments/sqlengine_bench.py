"""SQL engine benchmark — compile-and-cache engine vs the naive interpreter.

Not a paper figure: this measures the data side of verification. Every
claim costs at least one SQL execution, agents issue several exploratory
queries per claim, and the service replays near-identical workloads
across requests — so the engine's plan cache, compiled evaluators, hash
joins, and shared query-result cache translate directly into verification
latency (the ``sql_seconds`` line of the cost ledger).

Three workloads, each executed through the optimized engine and through
``Engine(naive=True)`` (the original parse-per-call, walk-per-row
interpreter), asserting byte-identical results:

* **repeated-query** — a small set of single-cell aggregates re-executed
  many times, the pipeline's steady state. Exercises the plan cache and
  the shared result cache.
* **equi-join** — distinct join queries over a fact/dimension pair with
  the result cache disabled, so the measured win is the hash-join plan,
  predicate pushdown, and compiled predicates themselves.
* **agent-trace-replay** — simulated agent tool traces (a few
  exploratory probes per claim, heavy overlap across claims) replayed
  through the per-database shared engine, the service's regime.

Run with::

    python -m repro.experiments sqlengine --fast

Writes ``BENCH_sqlengine.json`` next to the working directory so the
speedup numbers are machine-checkable.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass

from repro.sqlengine import (
    Database,
    Engine,
    QueryResultCache,
    Table,
    engine_for,
    engine_stats,
    reset_engine_stats,
)

from .common import format_table

#: How often each repeated-query statement is re-executed (the pipeline
#: re-validates, the service re-verifies, agents retry).
REPEAT_ROUNDS = 40
FAST_REPEAT_ROUNDS = 12

#: Fact-table size; nested-loop joins are quadratic in this.
FACT_ROWS = 400
FAST_FACT_ROWS = 160

REGIONS = ("North", "South", "East", "West")
CATEGORIES = ("storage", "compute", "network", "analytics")

OUTPUT_FILE = "BENCH_sqlengine.json"


@dataclass
class WorkloadResult:
    """Timings for one workload, both arms, plus the identity check."""

    workload: str
    queries: int                 # executions per arm
    naive_seconds: float
    optimized_seconds: float
    speedup: float
    identical: bool              # byte-identical results across arms


@dataclass
class SqlEngineBenchResult:
    workloads: list[WorkloadResult]
    engine: dict                 # engine_stats() snapshot after the run

    @property
    def all_identical(self) -> bool:
        return all(w.identical for w in self.workloads)

    def speedup(self, workload: str) -> float:
        for entry in self.workloads:
            if entry.workload == workload:
                return entry.speedup
        raise KeyError(workload)


def _build_database(rows: int, seed: int) -> Database:
    """A sales fact table plus a product dimension, deterministic."""
    rng = random.Random(seed)
    products = [f"product-{index:02d}" for index in range(24)]
    database = Database("sqlbench")
    database.add(Table(
        "products",
        ["product", "category", "launch_year"],
        [
            (name, CATEGORIES[index % len(CATEGORIES)],
             2000 + rng.randrange(0, 20))
            for index, name in enumerate(products)
        ],
    ))
    database.add(Table(
        "sales",
        ["region", "product", "units", "price", "year"],
        [
            (
                rng.choice(REGIONS),
                rng.choice(products),
                rng.randrange(1, 500),
                round(rng.uniform(5.0, 400.0), 2),
                2015 + rng.randrange(0, 10),
            )
            for _ in range(rows)
        ],
    ))
    return database


def _repeated_queries(rounds: int) -> list[str]:
    base = [
        "SELECT SUM(units) FROM sales WHERE region = 'North'",
        "SELECT AVG(price) FROM sales WHERE region = 'South'",
        "SELECT COUNT(*) FROM sales WHERE units > 250",
        "SELECT MAX(price) FROM sales WHERE year = 2019",
        "SELECT MIN(units) FROM sales WHERE region = 'East' AND year > 2017",
        "SELECT COUNT(*) FROM sales WHERE region = 'West' OR units < 50",
    ]
    return base * rounds


def _equi_join_queries() -> list[str]:
    queries = []
    for category in CATEGORIES:
        queries.append(
            "SELECT SUM(s.units) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.category = '{category}'"
        )
        queries.append(
            "SELECT COUNT(*) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.category = '{category}' AND s.units > 100"
        )
    for year in (2005, 2010, 2015):
        queries.append(
            "SELECT AVG(s.price) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.launch_year < {year}"
        )
        queries.append(
            "SELECT s.region, COUNT(*) FROM sales s "
            "LEFT JOIN products p ON s.product = p.product "
            f"WHERE s.year >= {year} "
            "GROUP BY s.region ORDER BY s.region"
        )
    return queries


def _agent_trace_queries(rng: random.Random, claims: int) -> list[str]:
    """Per claim: a couple of exploratory probes, then the final query.

    Probes are drawn from small pools (agents rediscover the same
    constants over and over), so traces overlap heavily across claims —
    exactly the shape the shared result cache is built for.
    """
    trace: list[str] = []
    for _ in range(claims):
        region = rng.choice(REGIONS)
        category = rng.choice(CATEGORIES)
        trace.append(f"SELECT COUNT(*) FROM sales WHERE region = '{region}'")
        trace.append(
            "SELECT COUNT(*) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.category = '{category}'"
        )
        trace.append(
            f"SELECT SUM(units) FROM sales WHERE region = '{region}'"
        )
    return trace


def _run_arm(engine: Engine, queries: list[str]) -> tuple[float, list[str]]:
    """Execute every query, returning wall-clock and serialized results."""
    serialized: list[str] = []
    start = time.perf_counter()
    for sql in queries:
        result = engine.execute(sql)
        serialized.append(repr((result.columns, result.rows)))
    return time.perf_counter() - start, serialized


def _workload(
    name: str,
    database: Database,
    queries: list[str],
    optimized: Engine,
) -> WorkloadResult:
    naive = Engine(database, naive=True)  # lint: allow-engine
    naive_seconds, naive_results = _run_arm(naive, queries)
    optimized_seconds, optimized_results = _run_arm(optimized, queries)
    return WorkloadResult(
        workload=name,
        queries=len(queries),
        naive_seconds=naive_seconds,
        optimized_seconds=optimized_seconds,
        speedup=(naive_seconds / optimized_seconds
                 if optimized_seconds else float("inf")),
        identical=naive_results == optimized_results,
    )


def run_sqlengine_bench(
    fast: bool = False, seed: int = 7
) -> SqlEngineBenchResult:
    """Run all three workloads and snapshot the engine counters."""
    rows = FAST_FACT_ROWS if fast else FACT_ROWS
    rounds = FAST_REPEAT_ROUNDS if fast else REPEAT_ROUNDS
    database = _build_database(rows, seed)
    reset_engine_stats()

    workloads = [
        _workload(
            "repeated-query",
            database,
            _repeated_queries(rounds),
            Engine(database, result_cache=QueryResultCache(256)),  # lint: allow-engine
        ),
        _workload(
            "equi-join",
            database,
            _equi_join_queries(),
            # Result cache off: measure the hash-join plan itself.
            Engine(database, result_cache=None),  # lint: allow-engine
        ),
        _workload(
            "agent-trace-replay",
            database,
            _agent_trace_queries(random.Random(seed + 1), claims=rounds),
            engine_for(database),
        ),
    ]
    return SqlEngineBenchResult(workloads=workloads, engine=engine_stats())


def format_sqlengine_bench(result: SqlEngineBenchResult) -> str:
    lines = [
        "SQL engine benchmark (optimized engine vs naive interpreter)",
        "",
        format_table(
            ["workload", "queries", "naive", "optimized", "speedup",
             "identical"],
            [
                [
                    entry.workload,
                    str(entry.queries),
                    f"{entry.naive_seconds:.3f}s",
                    f"{entry.optimized_seconds:.3f}s",
                    f"{entry.speedup:.1f}x",
                    "yes" if entry.identical else "NO",
                ]
                for entry in result.workloads
            ],
        ),
        "",
    ]
    strategies = result.engine.get("strategies", {})
    plan = result.engine.get("plan_cache", {})
    plan_lookups = plan.get("hits", 0) + plan.get("misses", 0)
    lines.append(
        f"plan cache: {plan.get('hits', 0)}/{plan_lookups} hits; "
        f"hash joins: {strategies.get('hash_joins', 0)}; "
        f"pushed predicates: {strategies.get('pushed_predicates', 0)}; "
        f"result cache hits: {strategies.get('result_cache_hits', 0)}"
    )
    lines.append(
        "results: "
        + ("byte-identical across all workloads"
           if result.all_identical else "DIVERGED — bug")
    )
    return "\n".join(lines)


def write_bench_json(
    result: SqlEngineBenchResult, path: str = OUTPUT_FILE
) -> None:
    payload = {
        "workloads": [asdict(entry) for entry in result.workloads],
        "engine": result.engine,
        "all_identical": result.all_identical,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(fast: bool = False) -> str:
    result = run_sqlengine_bench(fast=fast)
    report = format_sqlengine_bench(result)
    print(report)
    write_bench_json(result)
    print(f"wrote {OUTPUT_FILE}")
    return report


if __name__ == "__main__":
    main()
