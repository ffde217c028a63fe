"""Cost ledger: the accounting substrate for every experiment.

All LLM calls record an entry here. The ledger supports nested *tags*
(document, claim, verification method) via a context manager, so the
experiment harness can attribute spending to individual claims and methods
— which is what the profiling stage (Section 6) and the cost columns of the
evaluation (Section 7) consume.

The ledger is safe to share across worker threads: the tag stack is
thread-local (each worker attributes its own calls), appends to the shared
entry list take a lock, and :meth:`capture`/:meth:`absorb` let an executor
route a worker's entries into a private sub-ledger that is merged back in
a deterministic order once the worker joins — so a parallel run produces
the same entry sequence (and therefore the same totals) as a sequential
one.

The grand total and the retry backoff are folded as entries reach the
shared list, so reading them costs the same however long the process
has been serving; per-tag totals are computed by a scan.
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
    tags: tuple[str, ...] = ()

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


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
    tags: tuple[str, ...] = ()


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
    """A worker's private slice of ledger activity (see ``capture``)."""

    entries: list[LedgerEntry] = field(default_factory=list)
    events: list[RetryEvent] = field(default_factory=list)

    def totals(self) -> LedgerTotals:
        """Aggregate the captured entries (a service job's spend)."""
        totals = LedgerTotals()
        for entry in self.entries:
            totals.add(entry)
        return totals


class CostLedger:
    """Append-only record of LLM spending with tag attribution."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self.events: list[RetryEvent] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Running totals over ``entries``/``events``, folded in entry
        # order under the lock (see :meth:`_append`).
        self._totals = LedgerTotals()
        self._backoff_seconds = 0.0
        # Data-side (SQL engine) latency, tracked as plain counters rather
        # than entries: it costs no tokens, and keeping it out of
        # ``entries`` leaves the capture/absorb determinism contract of
        # the parallel executor untouched.
        self._sql_seconds = 0.0
        self._sql_executions = 0

    # -- thread-local state --------------------------------------------------

    @property
    def _tag_stack(self) -> list[str]:
        stack = getattr(self._local, "tags", None)
        if stack is None:
            stack = []
            self._local.tags = stack
        return stack

    @property
    def _sink(self) -> LedgerDelta | None:
        return getattr(self._local, "sink", None)

    def _append(
        self, entries: Sequence[LedgerEntry], events: Sequence[RetryEvent]
    ) -> None:
        """Extend the shared lists and fold the running totals.

        Folding happens in entry order with the same ``add`` a scan
        would apply, so every running float sum is bit-identical to
        re-aggregating ``entries`` from the start.
        """
        with self._lock:
            for entry in entries:
                self._totals.add(entry)
            self.entries.extend(entries)
            for event in events:
                self._backoff_seconds += event.delay_seconds
            self.events.extend(events)

    def record(
        self,
        model: str,
        prompt_tokens: int,
        completion_tokens: int,
        cost: float,
        latency_seconds: float,
    ) -> None:
        """Record one call under the currently active tags."""
        entry = LedgerEntry(
            model=model,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            cost=cost,
            latency_seconds=latency_seconds,
            tags=tuple(self._tag_stack),
        )
        sink = self._sink
        if sink is not None:
            sink.entries.append(entry)
        else:
            self._append((entry,), ())

    def record_retry(
        self,
        model: str,
        attempt: int,
        delay_seconds: float,
        error: str,
        gave_up: bool = False,
    ) -> None:
        """Record one retry/backoff decision under the active tags."""
        event = RetryEvent(
            model=model,
            attempt=attempt,
            delay_seconds=delay_seconds,
            error=error,
            gave_up=gave_up,
            tags=tuple(self._tag_stack),
        )
        sink = self._sink
        if sink is not None:
            sink.events.append(event)
        else:
            self._append((), (event,))

    def record_sql(self, seconds: float, executions: int = 1) -> None:
        """Record time spent executing SQL for the verification data side.

        Shows up in latency accounting (``sql_seconds`` /
        ``sql_executions``) so the engine's share of wall-clock is visible
        next to model-call latency in ``/stats`` and reports.
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
    def tagged(self, tag: str):
        """Attribute all calls inside the block to ``tag`` (nestable)."""
        stack = self._tag_stack
        stack.append(tag)
        try:
            yield self
        finally:
            stack.pop()

    def current_tags(self) -> tuple[str, ...]:
        """Snapshot of this thread's active tag stack."""
        return tuple(self._tag_stack)

    @contextmanager
    def scoped(self, tags: Sequence[str]):
        """Replay a tag snapshot on this thread (for handed-off work).

        A claim task running on a pool thread has an empty tag stack; the
        executor passes it the submitting thread's :meth:`current_tags` so
        its entries are attributed exactly as they would have been inline.
        """
        stack = self._tag_stack
        previous = list(stack)
        stack[:] = list(tags)
        try:
            yield self
        finally:
            stack[:] = previous

    @contextmanager
    def capture(self) -> Iterator[LedgerDelta]:
        """Buffer this thread's records into a private :class:`LedgerDelta`.

        Nothing reaches the shared entry list until the caller hands the
        delta to :meth:`absorb` — the per-worker sub-ledger half of the
        merge-on-join protocol.
        """
        delta = LedgerDelta()
        previous = self._sink
        self._local.sink = delta
        try:
            yield delta
        finally:
            self._local.sink = previous

    def absorb(self, delta: LedgerDelta) -> None:
        """Merge a captured delta into this thread's sink or the ledger."""
        sink = self._sink
        if sink is not None:
            sink.entries.extend(delta.entries)
            sink.events.extend(delta.events)
        else:
            self._append(delta.entries, delta.events)

    # -- aggregation ---------------------------------------------------------

    def totals(self, tag: str | None = None) -> LedgerTotals:
        """Aggregate all entries, optionally restricted to one tag."""
        if tag is None:
            with self._lock:
                return replace(self._totals)
        totals = LedgerTotals()
        for entry in self.entries:
            if tag in entry.tags:
                totals.add(entry)
        return totals

    def totals_by_tag_prefix(self, prefix: str) -> dict[str, LedgerTotals]:
        """Aggregate entries per tag, over tags starting with ``prefix``.

        E.g. ``totals_by_tag_prefix("method:")`` returns per-method totals.
        """
        grouped: dict[str, LedgerTotals] = {}
        for entry in self.entries:
            for tag in entry.tags:
                if tag.startswith(prefix):
                    grouped.setdefault(tag, LedgerTotals()).add(entry)
        return grouped

    def checkpoint(self) -> int:
        """Return a marker for :meth:`totals_since`."""
        return len(self.entries)

    def totals_since(self, checkpoint: int) -> LedgerTotals:
        """Aggregate entries recorded after a checkpoint."""
        totals = LedgerTotals()
        for entry in self.entries[checkpoint:]:
            totals.add(entry)
        return totals

    @property
    def total_cost(self) -> float:
        with self._lock:
            return self._totals.cost

    @property
    def total_latency_seconds(self) -> float:
        with self._lock:
            return self._totals.latency_seconds

    @property
    def retry_count(self) -> int:
        return len(self.events)

    @property
    def retry_backoff_seconds(self) -> float:
        """Cumulative backoff sleep requested across all retry events.

        Each :class:`RetryEvent` records the delay applied before its
        next attempt; this sums them so ``/stats`` and reports can show
        how much of a run's wall-clock went to waiting out failures.
        """
        with self._lock:
            return self._backoff_seconds

    def __len__(self) -> int:
        return len(self.entries)
