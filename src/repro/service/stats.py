"""Service statistics: a small latency histogram and the /stats snapshot.

The histogram keeps geometric buckets instead of raw samples, so
recording is O(log buckets) with a bounded footprint no matter how many
jobs pass through — quantiles come back as the upper bound of the bucket
the quantile falls in, which is plenty for p50/p95 health reporting.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import asdict, dataclass


class LatencyHistogram:
    """Fixed geometric buckets over seconds; thread-safe.

    Defaults span 1 ms to ~2.3 h (24 buckets, factor 2). Values above the
    last bound land in an overflow bucket whose quantile reports the
    maximum value seen.
    """

    def __init__(
        self,
        first_bound: float = 0.001,
        factor: float = 2.0,
        buckets: int = 24,
    ) -> None:
        if first_bound <= 0 or factor <= 1 or buckets < 1:
            raise ValueError("invalid histogram shape")
        self._bounds = [first_bound * factor ** i for i in range(buckets)]
        self._counts = [0] * (buckets + 1)       # +1: overflow bucket
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, seconds: float) -> None:
        index = bisect.bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            self._max = max(self._max, seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            cumulative = 0
            for index, count in enumerate(self._counts):
                cumulative += count
                if cumulative >= target and count:
                    if index >= len(self._bounds):   # overflow bucket
                        return self._max
                    return min(self._bounds[index], self._max)
            return self._max

    def snapshot(self) -> dict:
        """Summary stats plus the raw bucket layout.

        ``buckets`` exposes the geometric bounds and per-bucket counts
        (the final count is the overflow bucket, whose upper edge is the
        maximum value observed) so ``GET /v1/metrics`` can render the
        full distribution as a histogram instead of just two quantiles.
        """
        with self._lock:
            count, total, maximum = self._count, self._sum, self._max
            counts = list(self._counts)
        return {
            "count": count,
            "sum_seconds": round(total, 6),
            "mean_seconds": round(total / count, 6) if count else 0.0,
            "max_seconds": round(maximum, 6),
            "p50_seconds": round(self.quantile(0.5), 6),
            "p95_seconds": round(self.quantile(0.95), 6),
            "buckets": {"bounds": list(self._bounds), "counts": counts},
        }


@dataclass(frozen=True)
class ServiceStats:
    """One consistent-enough snapshot of a running service."""

    queue_depth: int
    running_jobs: int
    draining: bool
    jobs: dict          # submitted / completed / failed / cancelled / rejected
    batches: dict       # count / jobs / mean_size / max_size
    cache: dict | None  # CacheStats.to_dict() (+ tiers with an L2); None: off
    sql: dict           # plan_cache / strategies / result_cache / executions
    ledger: dict        # entries / calls / cost_usd / tokens / retries
    latency: dict       # LatencyHistogram.snapshot()

    def to_dict(self) -> dict:
        return asdict(self)
