"""The ledger's running totals against a full scan of its entries.

``CostLedger`` folds the grand total, the per-``method:`` totals and the
retry backoff as entries reach the shared list. Whatever mix of direct
records, nested tags, captures and absorbs produced that list, every
running figure must *equal* — bit for bit, not approximately — what
re-aggregating the list from the start gives.
"""

from hypothesis import given, settings, strategies as st

from repro.llm import CostLedger
from repro.llm.ledger import LedgerTotals

_TAGS = ["method:one_shot", "method:agent", "method:", "doc:7", "claim:7/1"]

_costs = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)

#: A little program over one ledger. ``tagged``/``capture`` carry a body
#: that runs inside the context manager; a capture's delta is absorbed
#: right after its body, or dropped when ``absorb`` is False.
_steps = st.deferred(lambda: st.lists(st.one_of(
    st.tuples(st.just("record"), st.integers(0, 900), st.integers(0, 90),
              _costs, _costs),
    st.tuples(st.just("retry"), _costs),
    st.tuples(st.just("tagged"), st.sampled_from(_TAGS), _steps),
    st.tuples(st.just("capture"), st.booleans(), _steps),
), max_size=6))


def run_steps(ledger: CostLedger, steps) -> None:
    for step in steps:
        if step[0] == "record":
            ledger.record("gpt-4o", *step[1:])
        elif step[0] == "retry":
            ledger.record_retry("gpt-4o", 1, step[1], "TimeoutError()")
        elif step[0] == "tagged":
            with ledger.tagged(step[1]):
                run_steps(ledger, step[2])
        else:
            with ledger.capture() as delta:
                run_steps(ledger, step[2])
            if step[1]:
                ledger.absorb(delta)


def scan(entries, wanted=lambda entry: True) -> LedgerTotals:
    totals = LedgerTotals()
    for entry in entries:
        if wanted(entry):
            totals.add(entry)
    return totals


@settings(max_examples=150, deadline=None)
@given(_steps)
def test_running_totals_equal_a_full_scan(steps):
    ledger = CostLedger()
    run_steps(ledger, steps)
    entries = ledger.entries

    assert ledger.totals() == scan(entries)
    assert ledger.total_cost == scan(entries).cost
    assert ledger.total_latency_seconds == scan(entries).latency_seconds

    by_method: dict[str, LedgerTotals] = {}
    for entry in entries:
        for tag in entry.tags:
            if tag.startswith("method:"):
                by_method.setdefault(tag, LedgerTotals()).add(entry)
    indexed = ledger.totals_by_tag_prefix("method:")
    assert indexed == by_method
    assert list(indexed) == list(by_method)  # first-seen order, as a scan

    backoff = 0.0
    for event in ledger.events:
        backoff += event.delay_seconds
    assert ledger.retry_backoff_seconds == backoff
    assert ledger.retry_count == len(ledger.events)


def test_returned_totals_are_copies():
    ledger = CostLedger()
    with ledger.tagged("method:one_shot"):
        ledger.record("gpt-4o", 10, 5, 0.25, 0.5)
    ledger.totals().calls = 99
    ledger.totals_by_tag_prefix("method:")["method:one_shot"].calls = 99
    assert ledger.totals().calls == 1
    assert ledger.totals_by_tag_prefix("method:")["method:one_shot"].calls == 1


def test_per_request_tags_are_scanned_not_indexed():
    ledger = CostLedger()
    with ledger.tagged("doc:1"), ledger.tagged("method:one_shot"):
        ledger.record("gpt-4o", 10, 5, 0.25, 0.5)
    assert set(ledger._method_totals) == {"method:one_shot"}
    assert ledger.totals_by_tag_prefix("doc:")["doc:1"].calls == 1
    assert ledger.totals("doc:1").cost == 0.25
