"""Cost ledger: the accounting substrate for every experiment.

Every LLM call records an entry here. The ledger itself keeps only
running totals (calls, tokens, cost, latency, retries, backoff and the
SQL counters), so what it holds does not grow with the calls it has
seen. Spend is attributed by scope: :meth:`CostLedger.capture` buffers
a thread's records into a private :class:`LedgerDelta` — the entries
of exactly that scope, in order — and :meth:`CostLedger.absorb` folds
the delta into the enclosing capture or the totals. The profiling stage
(Section 6), the cost columns of the evaluation (Section 7) and the
service's per-job spend each read their scope's delta.

The ledger is safe to share across worker threads: the capture sink is
thread-local and folding takes a lock. Captures nest, and an executor
absorbs its workers' deltas in a deterministic order once they join,
so a parallel run folds the same entry sequence (and therefore the
same totals) as a sequential one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded LLM call."""

    model: str
    prompt_tokens: int
    completion_tokens: int
    cost: float
    latency_seconds: float


@dataclass(frozen=True)
class RetryEvent:
    """One retry decision taken by the resilience layer.

    Recorded *in addition to* the failed call's normal entry (if the
    failure happened after billing) so operators can audit how much of a
    run's latency went to backoff and which models were flaky.
    """

    model: str
    attempt: int            # 1-based attempt that just failed
    delay_seconds: float    # backoff applied before the next attempt
    error: str              # repr of the classified failure
    gave_up: bool = False   # True when the policy exhausted its attempts


@dataclass
class LedgerTotals:
    """Aggregated spending over a set of entries."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost: float = 0.0
    latency_seconds: float = 0.0

    def add(self, entry: LedgerEntry) -> None:
        self.calls += 1
        self.prompt_tokens += entry.prompt_tokens
        self.completion_tokens += entry.completion_tokens
        self.cost += entry.cost
        self.latency_seconds += entry.latency_seconds

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class LedgerDelta:
    """One scope's ledger activity, in order (see ``capture``)."""

    entries: list[LedgerEntry] = field(default_factory=list)
    events: list[RetryEvent] = field(default_factory=list)

    def totals(self) -> LedgerTotals:
        """Aggregate the captured entries (e.g. a service job's spend)."""
        totals = LedgerTotals()
        for entry in self.entries:
            totals.add(entry)
        return totals


class CostLedger:
    """Running totals of LLM spending; scopes are measured by capture."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # Folded in entry order under the lock (see :meth:`_fold`).
        self._totals = LedgerTotals()
        self._retries = 0
        self._backoff_seconds = 0.0
        # Data-side (SQL engine) latency, tracked as plain counters rather
        # than entries: it costs no tokens, and keeping it out of the
        # entries leaves the capture/absorb determinism contract of the
        # parallel executor untouched.
        self._sql_seconds = 0.0
        self._sql_executions = 0

    @property
    def _sink(self) -> LedgerDelta | None:
        return getattr(self._local, "sink", None)

    def _fold(
        self, entries: Sequence[LedgerEntry], events: Sequence[RetryEvent]
    ) -> None:
        """Fold records into the running totals, in entry order, with
        the same ``add`` a fresh aggregation would apply — so every
        running float sum is bit-identical to re-aggregating the
        entries from the start."""
        with self._lock:
            for entry in entries:
                self._totals.add(entry)
            self._retries += len(events)
            for event in events:
                self._backoff_seconds += event.delay_seconds

    def record(
        self,
        model: str,
        prompt_tokens: int,
        completion_tokens: int,
        cost: float,
        latency_seconds: float,
    ) -> None:
        """Record one call into this thread's capture or the totals."""
        entry = LedgerEntry(
            model=model,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            cost=cost,
            latency_seconds=latency_seconds,
        )
        sink = self._sink
        if sink is not None:
            sink.entries.append(entry)
        else:
            self._fold((entry,), ())

    def record_retry(
        self,
        model: str,
        attempt: int,
        delay_seconds: float,
        error: str,
        gave_up: bool = False,
    ) -> None:
        """Record one retry/backoff decision, like :meth:`record`."""
        event = RetryEvent(
            model=model,
            attempt=attempt,
            delay_seconds=delay_seconds,
            error=error,
            gave_up=gave_up,
        )
        sink = self._sink
        if sink is not None:
            sink.events.append(event)
        else:
            self._fold((), (event,))

    def record_sql(self, seconds: float, executions: int = 1) -> None:
        """Record time spent executing SQL for the verification data side.

        Shows up in latency accounting (``sql_seconds`` /
        ``sql_executions``) so the engine's share of wall-clock is visible
        next to model-call latency in ``/stats``.
        """
        with self._lock:
            self._sql_seconds += seconds
            self._sql_executions += executions

    @property
    def sql_seconds(self) -> float:
        with self._lock:
            return self._sql_seconds

    @property
    def sql_executions(self) -> int:
        with self._lock:
            return self._sql_executions

    @contextmanager
    def capture(self) -> Iterator[LedgerDelta]:
        """Buffer this thread's records into a private :class:`LedgerDelta`.

        Nothing reaches the totals until the caller hands the delta to
        :meth:`absorb` — the per-worker sub-ledger half of the
        merge-on-join protocol, and the way to measure what a scope
        spent::

            with ledger.capture() as spent:
                ...
            ledger.absorb(spent)
            spent.totals().cost
        """
        delta = LedgerDelta()
        previous = self._sink
        self._local.sink = delta
        try:
            yield delta
        finally:
            self._local.sink = previous

    def absorb(self, delta: LedgerDelta) -> None:
        """Merge a captured delta into this thread's sink or the totals."""
        sink = self._sink
        if sink is not None:
            sink.entries.extend(delta.entries)
            sink.events.extend(delta.events)
        else:
            self._fold(delta.entries, delta.events)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> LedgerTotals:
        """A copy of the running totals over every absorbed entry."""
        with self._lock:
            return replace(self._totals)

    @property
    def total_cost(self) -> float:
        with self._lock:
            return self._totals.cost

    @property
    def retry_count(self) -> int:
        with self._lock:
            return self._retries

    @property
    def retry_backoff_seconds(self) -> float:
        """Cumulative backoff sleep requested across all retry events.

        Each :class:`RetryEvent` records the delay applied before its
        next attempt; this sums them so ``/stats`` can show how much of
        the process's wall-clock went to waiting out failures.
        """
        with self._lock:
            return self._backoff_seconds
