"""Parallel executor benchmark — sequential vs threaded wall-clock.

Not a paper figure: this exercises the concurrent executor
(:mod:`repro.core.executor`) on an AggChecker-like workload with
simulated per-token latency, demonstrating the three properties the
executor promises:

* **determinism** — with a fixed seed and no cache, the multi-worker run
  reproduces the sequential run's verdicts and ledger totals exactly;
* **wall-clock** — fanning documents (and post-harvest claims) over
  threads hides the scaled-down model latency;
* **caching** — a warm re-verification of the same documents is answered
  mostly from the temperature-0 response cache.

Run with::

    python -m repro.experiments parallel --fast
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import DatasetBundle, build_aggchecker
from repro.llm import LatencySimulatingClient

from .common import CedarSystem, build_cedar, format_table, reset_claims

#: Simulated latency is slept at this scale (1 s of model latency ->
#: 10 ms of bench wall-clock), so the benchmark finishes in seconds
#: while latency still dominates compute — as it does against hosted
#: APIs, which is the regime the parallel executor is built for.
LATENCY_SCALE = 0.01

#: Worker count of the parallel configurations.
DEFAULT_WORKERS = 4


@dataclass
class BenchPoint:
    """Wall-clock and accounting for one executor configuration."""

    label: str
    wall_seconds: float
    calls: int
    cost: float
    cache_hit_rate: float | None = None


@dataclass
class ParallelBenchResult:
    points: list[BenchPoint]
    speedup: float               # sequential / parallel (both uncached)
    verdicts_match: bool         # parallel reproduced sequential verdicts
    totals_match: bool           # ... and the same ledger totals
    warm_hit_rate: float         # cache hit rate of the warm re-run
    warm_speedup: float          # sequential / warm cached parallel


def _build(
    bundle: DatasetBundle,
    seed: int,
    config: VerifierConfig,
    scale: float,
) -> tuple[CedarSystem, list[ScheduleEntry]]:
    """A CEDAR system whose model calls cost (scaled) wall-clock time."""
    system = build_cedar(bundle, seed=seed, config=config)
    for method in system.methods:
        method.client = LatencySimulatingClient(method.client, scale)
    entries = [
        ScheduleEntry(system.method_by_name("one_shot[gpt-3.5-turbo]"), 2),
        ScheduleEntry(system.method_by_name("agent[gpt-4o]"), 1),
    ]
    return system, entries


def _timed_round(
    system: CedarSystem,
    entries: list[ScheduleEntry],
    bundle: DatasetBundle,
) -> tuple[float, dict[str, tuple[bool | None, str | None]]]:
    reset_claims(bundle.documents)
    start = time.perf_counter()
    system.verifier.verify_documents(bundle.documents, entries)
    elapsed = time.perf_counter() - start
    verdicts = {c.claim_id: (c.correct, c.query) for c in bundle.claims}
    return elapsed, verdicts


def run_parallel_bench(
    fast: bool = False,
    seed: int = 0,
    workers: int = DEFAULT_WORKERS,
    scale: float = LATENCY_SCALE,
) -> ParallelBenchResult:
    """Benchmark the executor configurations on one AggChecker workload."""
    if fast:
        bundle = build_aggchecker(document_count=8, total_claims=48)
    else:
        bundle = build_aggchecker(document_count=16, total_claims=96)

    # Sequential baseline, cache disabled.
    seq_system, entries = _build(bundle, seed, VerifierConfig(), scale)
    seq_time, seq_verdicts = _timed_round(seq_system, entries, bundle)
    seq_totals = seq_system.ledger.totals()

    # Parallel, cache disabled: must reproduce the sequential run.
    par_system, entries = _build(
        bundle, seed, VerifierConfig(workers=workers), scale
    )
    par_time, par_verdicts = _timed_round(par_system, entries, bundle)
    par_totals = par_system.ledger.totals()

    verdicts_match = par_verdicts == seq_verdicts
    totals_match = (
        par_totals.calls == seq_totals.calls
        and par_totals.cost == seq_totals.cost
    )

    # Parallel with the response cache: one cold round to fill it, then a
    # warm re-verification of the same documents (the verifier keeps its
    # cache across runs).
    cached_system, entries = _build(
        bundle, seed, VerifierConfig(workers=workers, cache_size=4096), scale
    )
    cold_time, _ = _timed_round(cached_system, entries, bundle)
    cold_stats = cached_system.verifier.cache.stats
    cold_cost = cached_system.ledger.total_cost
    warm_time, _ = _timed_round(cached_system, entries, bundle)
    warm_stats = cached_system.verifier.cache.stats
    warm_lookups = warm_stats.lookups - cold_stats.lookups
    warm_hits = warm_stats.hits - cold_stats.hits
    warm_hit_rate = warm_hits / warm_lookups if warm_lookups else 0.0

    # Only misses and bypasses reach the model (and the ledger); hits
    # cost nothing. The cold round pays for nearly everything.
    cold_calls = cold_stats.misses + cold_stats.bypasses
    warm_calls = (warm_stats.misses + warm_stats.bypasses) - cold_calls
    points = [
        BenchPoint("sequential", seq_time, seq_totals.calls, seq_totals.cost),
        BenchPoint(f"parallel x{workers}", par_time, par_totals.calls,
                   par_totals.cost),
        BenchPoint(f"parallel x{workers} + cache (cold)", cold_time,
                   cold_calls, cold_cost,
                   cache_hit_rate=cold_stats.hit_rate),
        BenchPoint(f"parallel x{workers} + cache (warm)", warm_time,
                   warm_calls,
                   cached_system.ledger.total_cost - cold_cost,
                   cache_hit_rate=warm_hit_rate),
    ]

    return ParallelBenchResult(
        points=points,
        speedup=seq_time / par_time if par_time else float("inf"),
        verdicts_match=verdicts_match,
        totals_match=totals_match,
        warm_hit_rate=warm_hit_rate,
        warm_speedup=seq_time / warm_time if warm_time else float("inf"),
    )


def format_parallel_bench(result: ParallelBenchResult) -> str:
    lines = [
        "Parallel executor benchmark (simulated per-token latency)",
        "",
    ]
    rows = [
        [
            point.label,
            f"{point.wall_seconds:.2f}s",
            str(point.calls),
            f"${point.cost:.4f}" if point.cost else "-",
            (f"{100.0 * point.cache_hit_rate:.0f}%"
             if point.cache_hit_rate is not None else "-"),
        ]
        for point in result.points
    ]
    lines.append(format_table(
        ["configuration", "wall", "model calls", "cost", "cache hits"],
        rows,
    ))
    lines.append("")
    lines.append(
        f"speedup (uncached): {result.speedup:.2f}x; "
        f"warm cached re-run: {result.warm_speedup:.2f}x "
        f"at {100.0 * result.warm_hit_rate:.0f}% hit rate"
    )
    lines.append(
        "determinism: parallel verdicts "
        + ("MATCH" if result.verdicts_match else "DIFFER")
        + " sequential; ledger totals "
        + ("MATCH" if result.totals_match else "DIFFER")
    )
    return "\n".join(lines)


def main(fast: bool = False) -> str:
    report = format_parallel_bench(run_parallel_bench(fast=fast))
    print(report)
    return report


if __name__ == "__main__":
    main()
