"""Jobs that wait on the model overlap under one bound on calls in flight.

* jobs over blocking clients run side by side, yet at most ``workers``
  model calls are ever in flight, and each job's verdicts and spend equal
  the same job run alone;
* jobs whose clients never block still run one at a time on the
  dispatcher thread, and start no job or claim thread, unless a retry
  policy, whose backoff sleeps, makes them blocking;
* drain and cancel while blocking jobs overlap: every accepted job ends
  with exactly one terminal event, the service's counters return to
  zero, every call any job made is in the service ledger, and shutdown
  joins every thread the service started.
"""

import sys
import threading
import time

import pytest

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar
from repro.llm import CostLedger, RetryPolicy
from repro.llm.base import DelegatingLLMClient
from repro.service import (
    JobDone,
    JobStarted,
    ServiceConfig,
    VerificationService,
    clone_document,
)

WORKERS = 3


class Probe:
    """Counts the model calls in flight, and which documents make them."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.calls = 0
        self.documents: dict[str, int] = {}
        self.peak_documents = 0
        self.threads = set()


class RecordingClient(DelegatingLLMClient):
    """A blocking client: each call sleeps ``delay`` seconds in flight."""

    blocking = True

    def __init__(self, inner, probe, delay):
        super().__init__(inner)
        self.probe = probe
        self.delay = delay

    def complete(self, prompt, temperature=0.0):
        probe = self.probe
        document = next(tag for tag in self.ledger.current_tags()
                        if tag.startswith("doc:"))
        with probe.lock:
            probe.in_flight += 1
            probe.calls += 1
            probe.peak = max(probe.peak, probe.in_flight)
            probe.documents[document] = probe.documents.get(document, 0) + 1
            probe.peak_documents = max(probe.peak_documents,
                                       len(probe.documents))
            probe.threads.add(threading.current_thread().name)
        try:
            if self.delay:
                time.sleep(self.delay)
            return self.inner.complete(prompt, temperature)
        finally:
            with probe.lock:
                probe.in_flight -= 1
                probe.documents[document] -= 1
                if not probe.documents[document]:
                    del probe.documents[document]


def make_service(bundle, probe, delay=0.005, blocking=True, **config):
    """A service over a fresh CEDAR system, with sample harvesting on:
    its re-pass draws at the retry temperature, so a job equals its solo
    run only if no other job's calls leak into its draws."""
    ledger = CostLedger()
    config.setdefault("cache_size", 0)
    service = VerificationService(ServiceConfig(
        ledger=ledger, workers=WORKERS, max_queue_depth=64,
        per_client_limit=64, **config,
    ))
    system = build_cedar(bundle, seed=0,
                         config=VerifierConfig(ledger=ledger))
    if blocking:
        for method in system.methods:
            method.client = RecordingClient(method.client, probe, delay)
    schedule = [ScheduleEntry(method, 2) for method in system.methods[:3]]
    return service, schedule


def outcome(handle):
    """A finished job's verdicts (keyed by the original claim id) and
    its spend."""
    run = handle.result(timeout=30)
    verdicts = {
        claim.claim_id.split("/", 1)[1]: (claim.correct, claim.query)
        for document in run.documents for claim in document.claims
    }
    done = handle.events_snapshot()[-1]
    assert isinstance(done, JobDone)
    return verdicts, done.spend


def solo(bundle, index):
    """Document ``index`` as the only job of a fresh service."""
    service, schedule = make_service(bundle, Probe(), delay=0)
    handle = service.submit(clone_document(bundle.documents[index], "j"),
                            schedule)
    service.shutdown(drain=True)
    return outcome(handle)


@pytest.fixture
def bundle():
    return build_aggchecker(document_count=6, total_claims=36)


def service_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith(("cedar-job", "cedar-claim",
                                       "cedar-dispatch"))]


def test_overlapping_jobs_stay_under_the_bound_and_equal_their_solo_runs(
    bundle,
):
    probe = Probe()
    service, schedule = make_service(bundle, probe)
    handles = [
        service.submit(clone_document(document, f"o{index}"), schedule,
                       client_id=f"client-{index}")
        for index, document in enumerate(bundle.documents)
    ]
    service.start()
    # Switch threads far more often than the service's 1 ms, so a lost
    # update to the shared ledger, caches or counters would show.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for handle in handles:
            assert handle.wait(timeout=60)
            assert handle.state == "completed", handle.error
    finally:
        sys.setswitchinterval(previous)
        service.shutdown(drain=True)

    assert 0 < probe.peak <= WORKERS
    assert probe.peak_documents >= 2          # jobs really overlapped
    assert all(name.startswith("cedar-claim") for name in probe.threads)
    for index, handle in enumerate(handles):
        assert outcome(handle) == solo(bundle, index), handle.job_id
    assert service.ledger.totals().calls == probe.calls


def test_non_blocking_jobs_run_one_at_a_time_on_the_dispatcher(
    bundle, started_threads,
):
    service, schedule = make_service(bundle, Probe(), blocking=False)
    ran_on = []
    for entry in schedule:
        real_generate = entry.method.client._generate

        def generate(prompt, temperature, real_generate=real_generate):
            ran_on.append(threading.current_thread().name)
            return real_generate(prompt, temperature)

        entry.method.client._generate = generate
    handles = [
        service.submit(clone_document(document, f"n{index}"), schedule)
        for index, document in enumerate(bundle.documents)
    ]
    service.start()
    try:
        for handle in handles:
            assert handle.wait(timeout=60)
            assert handle.state == "completed", handle.error
    finally:
        service.shutdown(drain=True)

    assert ran_on and set(ran_on) == {"cedar-dispatch"}
    assert not [name for name in started_threads
                if name.startswith(("cedar-job", "cedar-claim"))]
    # One at a time: each job starts only after the previous one ended.
    spans = []
    for handle in handles:
        events = handle.events_snapshot()
        started = next(e for e in events if isinstance(e, JobStarted))
        spans.append((started.ts, events[-1].ts))
    spans.sort()
    assert all(end <= next_start
               for (_, end), (next_start, _) in zip(spans, spans[1:]))


def test_a_retry_policy_makes_every_job_wait_on_the_pool(
    bundle, started_threads,
):
    # Its backoff sleeps, so the retry layer makes simulated models
    # blocking: the job leaves the dispatcher and its calls the job
    # thread, exactly as for a blocking client.
    service, schedule = make_service(bundle, Probe(), blocking=False,
                                     retry=RetryPolicy())
    handle = service.submit(clone_document(bundle.documents[0], "r"),
                            schedule)
    service.start()
    try:
        assert handle.wait(timeout=60)
        assert handle.state == "completed", handle.error
    finally:
        service.shutdown(drain=True)
    assert [name for name in started_threads
            if name.startswith("cedar-job")] == [f"cedar-{handle.job_id}"]
    assert [name for name in started_threads
            if name.startswith("cedar-claim")]


@pytest.mark.parametrize("drain", [True, False], ids=["drain", "cancel"])
def test_drain_and_cancel_while_blocking_jobs_overlap(bundle, drain):
    before = service_threads()
    probe = Probe()
    service, schedule = make_service(bundle, probe, delay=0.01)
    handles = [
        service.submit(clone_document(bundle.documents[index % 6],
                                      f"c{index:02d}"), schedule,
                       client_id=f"client-{index % 4}")
        for index in range(12)
    ]
    service.start()
    # Let the first jobs start, then cancel one running and one queued
    # job while the rest overlap.
    deadline = time.monotonic() + 30
    while probe.calls < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    running = next(h for h in handles if h.state == "running")
    assert running.cancel()
    assert handles[-1].cancel()
    service.shutdown(drain=drain)

    for handle in handles:
        events = handle.events_snapshot()
        terminal = [event for event in events if event.terminal]
        assert len(terminal) == 1 and terminal == events[-1:], handle.job_id
        assert handle.state in ("completed", "cancelled")
    assert running.state == handles[-1].state == "cancelled"
    if drain:
        assert sum(h.state == "completed" for h in handles) == 10

    stats = service.stats()
    assert stats.queue_depth == 0 and stats.running_jobs == 0
    assert stats.jobs["submitted"] == 12 == (
        stats.jobs["completed"] + stats.jobs["cancelled"]
    )
    assert service._inflight == {}
    assert not service._active_claim_ids and not service._active_doc_ids
    # Every call any job made — cancelled ones included — is billed.
    assert stats.ledger["calls"] == probe.calls
    assert set(service_threads()) <= set(before)


def test_a_failed_overlapping_job_keeps_its_spend(bundle):
    probe = Probe()
    service, schedule = make_service(bundle, probe)
    # The first stage attempts every claim, the last one after the
    # first (harvest) attempt has made its calls.
    poisoned = schedule[0].method
    real_translate = poisoned.translate
    ledger = service.ledger
    victim = f"claim:bad/{bundle.documents[0].claims[-1].claim_id}"

    def translate(*args, **kwargs):
        if victim in ledger.current_tags():
            raise RuntimeError("poisoned claim")
        return real_translate(*args, **kwargs)

    poisoned.translate = translate
    handles = [
        service.submit(clone_document(document, "bad" if index == 0
                                      else f"g{index}"), schedule)
        for index, document in enumerate(bundle.documents)
    ]
    service.start()
    try:
        for handle in handles:
            assert handle.wait(timeout=60)
    finally:
        service.shutdown(drain=True)

    assert handles[0].state == "failed"
    assert handles[0].error == "RuntimeError: poisoned claim"
    assert all(handle.state == "completed" for handle in handles[1:])
    completed = sum(outcome(handle)[1]["llm_calls"]
                    for handle in handles[1:])
    # The failed job made calls before its fault; they are billed too.
    assert completed < probe.calls == service.ledger.totals().calls
