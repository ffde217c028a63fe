"""Shared test configuration: hermetic process-wide state.

Several subsystems keep process-wide state on purpose — the SQL
engine's shared plan cache, :class:`StrategyCounters`, the analyzer's
counters and memo cache, the tracing layer's default tracer, and the
handlers a front door attaches to the ``repro`` logger. Tests that
assert on any of it would otherwise see whatever the previously-run
test left behind, making outcomes depend on collection order. The
autouse fixture below resets or restores all of it around every test.
"""

import logging
import threading

import pytest

from repro.core import OneShotMethod, ScheduleEntry
from repro.core.claims import Claim, Document, Span
from repro.llm import TransientLLMError
from repro.llm.base import LLMClient
from repro.obs.tracer import set_default_tracer
from repro.sqlengine import Database, Table, reset_engine_stats


@pytest.fixture(autouse=True)
def _fresh_process_counters():
    """Zero engine/analyzer counters, clear the ambient tracer, and put
    the ``repro`` logger's handlers and level back as they were."""
    logger = logging.getLogger("repro")
    handlers, level = list(logger.handlers), logger.level
    reset_engine_stats()
    previous = set_default_tracer(None)
    yield
    set_default_tracer(previous)
    reset_engine_stats()
    for handler in logger.handlers[:]:
        if handler not in handlers:
            logger.removeHandler(handler)
            handler.close()
    for handler in handlers:
        if handler not in logger.handlers:
            logger.addHandler(handler)
    logger.setLevel(level)


@pytest.fixture
def claim_threads():
    """A callable returning the live ``cedar-claim*`` pool threads, for
    tests that pin the claims pool's lifetime."""
    return lambda: {thread for thread in threading.enumerate()
                    if thread.name.startswith("cedar-claim")}


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


class _FailsOnce(LLMClient):
    """Raises a transient error on its first call, then answers."""

    def __init__(self, ledger):
        super().__init__("gpt-3.5-turbo", ledger)
        self.attempts = 0

    def _generate(self, prompt, temperature):
        self.attempts += 1
        if self.attempts == 1:
            raise TransientLLMError("synthetic failure")
        return "```sql\nSELECT v FROM t WHERE k = 'a'\n```"


@pytest.fixture
def retried_once():
    """A callable ``ledger -> (document, schedule)`` whose one model
    call fails transiently once, so a retry policy retries it."""

    def build(ledger):
        database = Database("d")
        database.add(Table("t", ["k", "v"], [("a", 3)]))
        claim = Claim("There are 3 things.", Span(2, 2),
                      "Intro. There are 3 things. Outro.")
        method = OneShotMethod(_FailsOnce(ledger))
        return (Document("d", [claim], database),
                [ScheduleEntry(method, 1)])

    return build


@pytest.fixture
def attributed_spend():
    """A callable ``tracer -> [(kind, doc_id, method, claim_id)]``: every
    billed ``llm_call`` span (not failed, not a cache hit) and every
    ``retry`` span of the tracer's timeless tree, in order, with the
    document and the ``method`` span it sits under. This is how a run's
    spend is attributed to documents, methods and claims; a call or
    retry outside any method span fails the test."""

    def walk(node, doc_id, method, found):
        attributes = node["attributes"]
        if node["kind"] == "document":
            doc_id = attributes["doc_id"]
        elif node["kind"] == "method":
            method = attributes
        elif node["kind"] == "retry" or (
            node["kind"] == "llm_call" and node["status"] == "ok"
            and attributes.get("cache") != "hit"
        ):
            assert method is not None, f"{node['kind']} outside a method"
            found.append((node["kind"], doc_id, method["method"],
                          method["claim_id"]))
        for child in node["children"]:
            walk(child, doc_id, method, found)

    def collect(tracer):
        found = []
        for root in tracer.tree(include_times=False):
            walk(root, None, None, found)
        return found

    return collect
