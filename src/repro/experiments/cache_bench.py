"""Warm-L2 benchmark: a restarted worker must verify much faster.

The persistent cache tier (:mod:`repro.cache`) promises that the work a
process pays for — LLM responses and SQL result sets — survives a
restart. This benchmark prices that promise with two arms over the same
workload and the same sqlite file:

* **cold** — a fresh file. Every temperature-0 model call pays its
  (scaled) simulated latency and lands in L2 on the way out.
* **warm** — everything rebuilt from scratch (new bundle, new system,
  new ``CacheConfig``) except the sqlite file; the paper picture of a
  worker coming back up. Temperature-0 calls are answered from L2 and
  skip the simulated network entirely.

Model latency is made real by
:class:`~repro.llm.LatencySimulatingClient`, stacked *under* the
response cache so cache hits skip the sleep exactly as they skip the
network. The
acceptance bar is warm ≥ 3× faster than cold — and, because the cache
contract is byte-identical replay, both arms must produce identical
verdicts. Run with::

    python -m repro.experiments cache --fast

Writes ``BENCH_cache.json`` so the speedup is machine-checkable.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass

from repro.cache import CacheConfig, CacheStats
from repro.core import ScheduleEntry, VerifierConfig
from repro.llm import CostLedger, LatencySimulatingClient

from .common import build_cedar
from .parallel_bench import LATENCY_SCALE

#: Acceptance bar: warm-L2 wall-clock at least this much faster.
MIN_SPEEDUP = 3.0

OUTPUT_FILE = "BENCH_cache.json"

#: Workload size (documents, claims) per arm.
SIZE = (8, 40)
FAST_SIZE = (4, 16)


@dataclass
class CacheBenchResult:
    """Both arms' wall-clock plus the L2 accounting that explains it."""

    claims: int
    cold_seconds: float
    warm_seconds: float
    cold_l2: CacheStats          # puts-heavy: the file being written
    warm_l2: CacheStats          # hits-heavy: the file paying out
    verdicts_match: bool         # the determinism contract, re-checked

    @property
    def speedup(self) -> float:
        if self.warm_seconds <= 0:
            return 0.0
        return self.cold_seconds / self.warm_seconds

    @property
    def within_target(self) -> bool:
        return self.speedup >= MIN_SPEEDUP and self.verdicts_match


def _run_arm(path: str, fast: bool, seed: int = 7):
    """One full verification over a fresh system; only ``path`` persists."""
    from repro.datasets import build_aggchecker

    documents, claims = FAST_SIZE if fast else SIZE
    bundle = build_aggchecker(document_count=documents, total_claims=claims)
    config = VerifierConfig(
        ledger=CostLedger(),
        cache_size=256,
        sql_cache_size=256,
        cache_config=CacheConfig(path=path),
    )
    system = build_cedar(bundle, seed=seed, config=config)
    # Simulated latency under the cache: hits skip the sleep, exactly
    # as they skip the network against a hosted API.
    for method in system.methods:
        method.client = LatencySimulatingClient(method.client,
                                                LATENCY_SCALE)
    entries = [
        ScheduleEntry(system.method_by_name("one_shot[gpt-3.5-turbo]"), 2),
        ScheduleEntry(system.method_by_name("agent[gpt-4o]"), 1),
    ]
    start = time.perf_counter()
    system.verifier.verify_documents(bundle.documents, entries)
    elapsed = time.perf_counter() - start
    verdicts = {c.claim_id: (c.correct, c.query) for c in bundle.claims}
    store = config.open_cache_store()
    l2 = store.backend.stats()
    store.close()
    return elapsed, verdicts, l2, len(bundle.claims)


def run_cache_bench(fast: bool = False, seed: int = 7) -> CacheBenchResult:
    with tempfile.TemporaryDirectory(prefix="cedar-bench-cache-") as tmp:
        path = os.path.join(tmp, "l2.sqlite")
        cold_seconds, cold_verdicts, cold_l2, claims = _run_arm(
            path, fast, seed
        )
        warm_seconds, warm_verdicts, warm_l2, _ = _run_arm(
            path, fast, seed
        )
    return CacheBenchResult(
        claims=claims,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        cold_l2=cold_l2,
        warm_l2=warm_l2,
        verdicts_match=warm_verdicts == cold_verdicts,
    )


def format_cache_bench(result: CacheBenchResult) -> str:
    verdict = (
        f"≥ {MIN_SPEEDUP:.0f}× target met"
        if result.within_target
        else f"UNDER the {MIN_SPEEDUP:.0f}× target"
    )
    identical = "yes" if result.verdicts_match else "NO — BUG"
    return "\n".join([
        f"Persistent-L2 warm start ({result.claims} claims, simulated "
        "model latency)",
        "",
        f"  cold (fresh file):   {result.cold_seconds * 1e3:8.1f} ms  "
        f"(L2 entries written: {result.cold_l2.size})",
        f"  warm (restart):      {result.warm_seconds * 1e3:8.1f} ms  "
        f"(L2 hits: {result.warm_l2.hits})",
        f"  speedup:             {result.speedup:8.2f} ×  — {verdict}",
        f"  verdicts identical:  {identical}",
    ])


def write_bench_json(result: CacheBenchResult,
                     path: str = OUTPUT_FILE) -> None:
    payload = {
        "claims": result.claims,
        "cold_seconds": result.cold_seconds,
        "warm_seconds": result.warm_seconds,
        "cold_l2": result.cold_l2.to_dict(),
        "warm_l2": result.warm_l2.to_dict(),
        "speedup": result.speedup,
        "min_speedup": MIN_SPEEDUP,
        "verdicts_match": result.verdicts_match,
        "within_target": result.within_target,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(fast: bool = False) -> str:
    result = run_cache_bench(fast=fast)
    report = format_cache_bench(result)
    print(report)
    write_bench_json(result)
    print(f"wrote {OUTPUT_FILE}")
    return report


if __name__ == "__main__":
    main()
