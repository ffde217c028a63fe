"""Shared test configuration: hermetic process-wide counters.

Several subsystems keep process-wide state on purpose — the SQL
engine's shared plan cache, :class:`StrategyCounters`, the analyzer's
counters and memo cache, and the tracing layer's default tracer. Tests
that assert on those counters would otherwise see whatever the
previously-run test left behind, making outcomes depend on collection
order. The autouse fixture below zeroes all of it around every test.
"""

import threading

import pytest

from repro.obs.logging import reset_logging
from repro.obs.tracer import set_default_tracer
from repro.sqlengine import reset_engine_stats


@pytest.fixture(autouse=True)
def _fresh_process_counters():
    """Zero engine/analyzer counters, clear the ambient tracer, and
    drop any log sinks the previous test left installed."""
    reset_engine_stats()
    reset_logging()
    previous = set_default_tracer(None)
    yield
    set_default_tracer(previous)
    reset_logging()
    reset_engine_stats()


@pytest.fixture
def claim_threads():
    """A callable returning the live ``cedar-claim*`` pool threads, for
    tests that pin the claims pool's lifetime."""
    return lambda: {thread for thread in threading.enumerate()
                    if thread.name.startswith("cedar-claim")}
