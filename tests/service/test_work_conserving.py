"""The submit → verdict path never waits for nothing.

* an idle dispatcher blocks in one indefinite ``pop()`` — no poll tick —
  and ``shutdown()`` wakes it by closing the queue;
* bookkeeping reads (``stats()`` and the ``/v1/metrics`` rendering of
  it) read running totals, never the ledger's history.
"""

import time

from repro.llm import CostLedger
from repro.obs.export import to_prometheus
from repro.service import ServiceConfig, VerificationService


def test_idle_dispatcher_blocks_once_and_shutdown_wakes_it():
    service = VerificationService(ServiceConfig())
    timeouts = []
    real_pop = service._queue.pop

    def recording_pop(timeout=None):
        timeouts.append(timeout)
        return real_pop(timeout)

    service._queue.pop = recording_pop
    service.start()
    time.sleep(0.15)  # seven poll ticks' worth, had there been a poll
    started = time.monotonic()
    service.shutdown(drain=True, timeout=5.0)
    assert time.monotonic() - started < 1.0
    assert timeouts == [None]
    assert not service._dispatcher.is_alive()


class CountingList(list):
    """A list that counts the items handed out by iteration or slicing."""

    touched = 0

    def __iter__(self):
        for item in super().__iter__():
            self.touched += 1
            yield item

    def __getitem__(self, index):
        result = super().__getitem__(index)
        if isinstance(index, slice):
            self.touched += len(result)
        return result


def test_bookkeeping_reads_do_not_rescan_the_ledger():
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(ledger=ledger))
    for index in range(5000):
        with ledger.tagged(f"doc:{index}"), \
                ledger.tagged(f"method:m{index % 3}"):
            ledger.record("gpt-4o", 100, 10, 0.001, 0.2)
        if index % 100 == 0:
            ledger.record_retry("gpt-4o", 1, 0.5, "TimeoutError()")
    ledger.entries = CountingList(ledger.entries)
    ledger.events = CountingList(ledger.events)

    stats = service.stats()
    exposition = to_prometheus(stats.to_dict())

    # Nothing was appended since the lists were wrapped, so nothing of
    # them may be walked — at job 5,000 as at job 1.
    assert ledger.entries.touched == 0
    assert ledger.events.touched == 0
    assert stats.ledger["calls"] == 5000
    assert stats.ledger["retry_backoff_seconds"] == 25.0
    assert "cedar_ledger_calls 5000" in exposition
