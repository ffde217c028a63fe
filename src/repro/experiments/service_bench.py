"""Verification-service benchmark — throughput with and without batching.

Not a paper figure: this drives :class:`repro.service.VerificationService`
with a stream of concurrent jobs (clones of AggChecker documents, model
calls carrying simulated per-token latency) and compares two service
configurations:

* **unbatched** — ``max_batch_jobs=1``: every job becomes its own
  verifier call, one after another per dispatcher;
* **batched** — jobs queued while a batch runs coalesce into the next
  verifier call (no timed linger), so the document pool fans out
  *across requests* and every job in the batch shares the same warm
  response cache entries.

Each mode runs a cold round (cache empty) and a warm round (same
documents again); throughput is completed jobs per second, latency
quantiles come from each job's ``JobDone`` event.

Run with::

    python -m repro.experiments service --fast
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import DatasetBundle, build_aggchecker
from repro.llm import CostLedger, LatencySimulatingClient
from repro.service import JobDone, JobHandle, ServiceConfig, VerificationService
from repro.service import clone_document

from .common import build_cedar, format_table
from .parallel_bench import LATENCY_SCALE

#: Jobs per round and verifier threads per batch.
DEFAULT_JOBS = 16
DEFAULT_WORKERS = 4


@dataclass
class RoundPoint:
    """One (mode, round) measurement."""

    label: str
    jobs: int
    wall_seconds: float
    throughput: float            # completed jobs / second
    p50_seconds: float
    p95_seconds: float
    mean_batch_size: float
    cache_hit_rate: float | None


@dataclass
class ServiceBenchResult:
    points: list[RoundPoint]
    warm_speedup: float          # batched / unbatched warm throughput
    batching_observed: bool      # batched mode actually coalesced jobs
    all_completed: bool


def _make_service(
    bundle: DatasetBundle,
    seed: int,
    workers: int,
    batched: bool,
    scale: float,
) -> tuple[VerificationService, list[ScheduleEntry]]:
    """A service plus the fixed schedule its jobs will share.

    Both modes get the same dispatcher count and worker pool; the only
    difference is whether the dispatcher may coalesce queued jobs.
    """
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(
        max_queue_depth=256,
        per_client_limit=64,
        # No linger in either mode: the batched arm coalesces whatever
        # queued up while the previous batch ran.
        max_batch_jobs=8 if batched else 1,
        workers=workers,
        cache_size=4096,
        ledger=ledger,
    ))
    # Methods record into the service ledger; every call carries a
    # (scaled) wall-clock price that cache hits skip.
    system = build_cedar(bundle, seed=seed,
                         config=VerifierConfig(ledger=ledger))
    for method in system.methods:
        method.client = LatencySimulatingClient(method.client, scale)
    # Two-try stages matter here: retries run at temperature > 0 and
    # always bypass the response cache (Assumption 1 — independent
    # draws), so even a warm round carries real model latency. Batching
    # packs those uncacheable calls from different requests onto one
    # worker pool; an unbatched service pays them one job at a time.
    schedule = [
        ScheduleEntry(system.method_by_name("one_shot[gpt-3.5-turbo]"), 2),
        ScheduleEntry(system.method_by_name("one_shot[gpt-4o]"), 2),
        ScheduleEntry(system.method_by_name("agent[gpt-4o]"), 1),
    ]
    return service, schedule


def _round(
    service: VerificationService,
    bundle: DatasetBundle,
    schedule: list[ScheduleEntry],
    jobs: int,
    tag: str,
) -> tuple[float, list[float], list[JobHandle]]:
    """Submit ``jobs`` cloned-document jobs at once and wait them out."""
    # A hot-document workload: many clients asking about the same couple
    # of articles. Jobs only coalesce when they share a database, so
    # concentration is what gives the micro-batcher something to do.
    start = time.perf_counter()
    handles = [
        service.submit(
            clone_document(bundle.documents[index % 2], f"{tag}{index:03d}"),
            schedule,
            client_id=f"client-{index % 4}",
        )
        for index in range(jobs)
    ]
    latencies: list[float] = []
    for handle in handles:
        handle.wait()
        done = [e for e in handle.events_snapshot()
                if isinstance(e, JobDone)]
        if done:
            latencies.append(done[0].latency_seconds)
    wall = time.perf_counter() - start
    return wall, sorted(latencies), handles


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_service_bench(
    fast: bool = False,
    seed: int = 0,
    jobs: int | None = None,
    workers: int = DEFAULT_WORKERS,
    scale: float = LATENCY_SCALE,
) -> ServiceBenchResult:
    """Benchmark both service modes on one AggChecker workload."""
    if jobs is None:
        jobs = DEFAULT_JOBS // 2 if fast else DEFAULT_JOBS
    bundle = build_aggchecker(document_count=4, total_claims=24)

    points: list[RoundPoint] = []
    warm_throughput: dict[str, float] = {}
    batched_mean = 0.0
    all_completed = True
    for mode, batched in (("unbatched", False), ("batched", True)):
        service, schedule = _make_service(bundle, seed, workers, batched,
                                          scale)
        service.start()
        try:
            for phase in ("cold", "warm"):
                wall, latencies, handles = _round(
                    service, bundle, schedule, jobs, tag=f"{mode[0]}{phase[0]}"
                )
                all_completed &= all(
                    h.state == "completed" for h in handles
                )
                stats = service.stats()
                points.append(RoundPoint(
                    label=f"{mode} ({phase})",
                    jobs=jobs,
                    wall_seconds=wall,
                    throughput=jobs / wall if wall else float("inf"),
                    p50_seconds=_quantile(latencies, 0.5),
                    p95_seconds=_quantile(latencies, 0.95),
                    mean_batch_size=stats.batches["mean_size"],
                    cache_hit_rate=(stats.cache or {}).get("hit_rate"),
                ))
                if phase == "warm":
                    warm_throughput[mode] = points[-1].throughput
                    if mode == "batched":
                        batched_mean = stats.batches["mean_size"]
        finally:
            service.shutdown(drain=True)

    unbatched = warm_throughput.get("unbatched", 0.0)
    batched_tp = warm_throughput.get("batched", 0.0)
    return ServiceBenchResult(
        points=points,
        warm_speedup=batched_tp / unbatched if unbatched else float("inf"),
        batching_observed=batched_mean > 1.0,
        all_completed=all_completed,
    )


def format_service_bench(result: ServiceBenchResult) -> str:
    lines = [
        "Verification service benchmark (cross-request micro-batching)",
        "",
    ]
    rows = [
        [
            point.label,
            str(point.jobs),
            f"{point.wall_seconds:.2f}s",
            f"{point.throughput:.1f}/s",
            f"{point.p50_seconds * 1000:.0f}ms",
            f"{point.p95_seconds * 1000:.0f}ms",
            f"{point.mean_batch_size:.1f}",
            (f"{100.0 * point.cache_hit_rate:.0f}%"
             if point.cache_hit_rate is not None else "-"),
        ]
        for point in result.points
    ]
    lines.append(format_table(
        ["configuration", "jobs", "wall", "throughput", "p50", "p95",
         "batch", "cache"],
        rows,
    ))
    lines.append("")
    lines.append(
        f"warm-cache throughput, batched vs unbatched: "
        f"{result.warm_speedup:.2f}x "
        f"(batching {'observed' if result.batching_observed else 'ABSENT'}; "
        f"all jobs {'completed' if result.all_completed else 'NOT completed'})"
    )
    return "\n".join(lines)


def main(fast: bool = False) -> str:
    report = format_service_bench(run_service_bench(fast=fast))
    print(report)
    return report


if __name__ == "__main__":
    main()
