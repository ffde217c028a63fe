"""The ledger's running totals against a fresh fold of what it absorbed.

``CostLedger`` keeps no entries: it folds each record into running
totals as it reaches them. Whatever mix of direct records, nested
captures and absorbs produced them, every running figure must *equal* —
bit for bit, not approximately — what folding the same records afresh,
in the order they reached the totals, gives.
"""

from hypothesis import given, settings, strategies as st

from repro.llm import CostLedger
from repro.llm.ledger import LedgerDelta

_costs = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)

#: A little program over one ledger. ``capture`` carries a body that
#: runs inside the context manager; its delta is absorbed right after
#: its body, or dropped when ``absorb`` is False.
_steps = st.deferred(lambda: st.lists(st.one_of(
    st.tuples(st.just("record"), st.integers(0, 900), st.integers(0, 90),
              _costs, _costs),
    st.tuples(st.just("retry"), _costs),
    st.tuples(st.just("capture"), st.booleans(), _steps),
), max_size=6))


def run_steps(ledger: CostLedger, steps) -> None:
    for step in steps:
        if step[0] == "record":
            ledger.record("gpt-4o", *step[1:])
        elif step[0] == "retry":
            ledger.record_retry("gpt-4o", 1, step[1], "TimeoutError()")
        else:
            with ledger.capture() as delta:
                run_steps(ledger, step[2])
            if step[1]:
                ledger.absorb(delta)


@settings(max_examples=150, deadline=None)
@given(_steps)
def test_running_totals_equal_a_full_scan(steps):
    # Run the program inside one outer capture: the delta then holds
    # every record that reached it, in order, which is exactly what
    # the ledger's totals fold once the delta is absorbed.
    ledger = CostLedger()
    with ledger.capture() as everything:
        run_steps(ledger, steps)
    assert ledger.totals() == LedgerDelta().totals()
    ledger.absorb(everything)

    fresh = everything.totals()
    assert ledger.totals() == fresh
    assert ledger.total_cost == fresh.cost

    backoff = 0.0
    for event in everything.events:
        backoff += event.delay_seconds
    assert ledger.retry_backoff_seconds == backoff
    assert ledger.retry_count == len(everything.events)

    # The same program with no outer capture folds the same totals.
    direct = CostLedger()
    run_steps(direct, steps)
    assert direct.totals() == fresh
    assert direct.retry_backoff_seconds == backoff


def test_returned_totals_are_copies():
    ledger = CostLedger()
    ledger.record("gpt-4o", 10, 5, 0.25, 0.5)
    ledger.totals().calls = 99
    assert ledger.totals().calls == 1
