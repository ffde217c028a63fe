"""A job's verdicts and spend are a function of its document and seed.

The front door's schedule re-passes claims at the retry temperature
(Algorithm 1's few-shot sample), so every job draws. Those draws are
numbered within each claim's verification in its own job, so:

* under any interleaving of repeat submissions with other documents'
  jobs on one started service, inline or over a blocking client, every
  job gets the verdicts and ``spend`` of the same document's job on a
  fresh system;
* two concurrent copies of one document over a blocking client each
  equal the solo run.
"""

import itertools
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ScheduleEntry, VerifierConfig
from repro.experiments import build_cedar
from repro.llm import CostLedger, LatencySimulatingClient
from repro.llm.base import DelegatingLLMClient
from repro.obs.tracer import current_tracer
from repro.service import (
    JobDone,
    ServiceConfig,
    VerificationService,
    clone_document,
)
from repro.service.http import DEFAULT_DATASETS

BUNDLE = DEFAULT_DATASETS["aggchecker"]()
DOCUMENTS = 4        # the first few of the default documents
_SOLO: dict[int, tuple] = {}
_tags = itertools.count()


def make_service(wrap=None, **config):
    """A fresh service over a fresh CEDAR system, with the front door's
    single-try three-stage schedule and sample harvesting on. The
    response cache is off, so a repeat job pays for every call again
    and its spend is comparable to a fresh system's."""
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(
        ledger=ledger, cache_size=0, max_queue_depth=64,
        per_client_limit=64, **config,
    ))
    system = build_cedar(BUNDLE, seed=0,
                         config=VerifierConfig(ledger=ledger))
    if wrap is not None:
        for method in system.methods:
            method.client = wrap(method.client)
    schedule = [ScheduleEntry(method, 1) for method in system.methods[:3]]
    return service, schedule


def submit(service, schedule, index):
    tag = f"r{next(_tags)}"
    return service.submit(clone_document(BUNDLE.documents[index], tag),
                          schedule, client_id=tag)


def outcome(handle):
    """A finished job's verdicts (keyed by the original claim id) and
    its spend."""
    run = handle.result(timeout=60)
    verdicts = {
        claim.claim_id.split("/", 1)[1]: (claim.correct, claim.query)
        for document in run.documents for claim in document.claims
    }
    done = handle.events_snapshot()[-1]
    assert isinstance(done, JobDone)
    return verdicts, done.spend


def solo(index):
    """Document ``index`` as the only job of a fresh system."""
    if index not in _SOLO:
        service, schedule = make_service()
        handle = submit(service, schedule, index)
        service.shutdown(drain=True)
        _SOLO[index] = outcome(handle)
    return _SOLO[index]


def blocking(client):
    return LatencySimulatingClient(client, 0.0)


def test_the_front_door_schedule_draws_at_retry_temperature():
    # Guards the premise: without retry draws this module tests nothing.
    temperatures = []

    class Recording(DelegatingLLMClient):
        def complete(self, prompt, temperature=0.0):
            temperatures.append(temperature)
            return self.inner.complete(prompt, temperature)

    service, schedule = make_service(wrap=Recording)
    for index in range(DOCUMENTS):
        submit(service, schedule, index)
    service.shutdown(drain=True)
    assert any(temperature > 0 for temperature in temperatures)


STEPS = st.lists(
    st.one_of(st.integers(0, DOCUMENTS - 1), st.just("wait")),
    min_size=1, max_size=8,
)


@settings(max_examples=12, deadline=None)
@given(steps=STEPS, block=st.booleans())
@example(steps=[0, 1, 0, "wait", 0, 1], block=False)
@example(steps=[2, 2, 3, 2], block=True)
def test_repeat_jobs_equal_a_fresh_systems_job(steps, block):
    service, schedule = make_service(
        wrap=blocking if block else None, workers=3,
    )
    service.start()
    submitted = []
    pending = []
    try:
        for step in steps:
            if step == "wait":
                for handle in pending:
                    assert handle.wait(timeout=60)
                pending = []
                continue
            handle = submit(service, schedule, step)
            submitted.append((step, handle))
            pending.append(handle)
        for _, handle in submitted:
            assert handle.wait(timeout=60)
            assert handle.state == "completed", handle.error
    finally:
        service.shutdown(drain=True)
    for index, handle in submitted:
        assert outcome(handle) == solo(index), (index, handle.job_id)


def test_concurrent_copies_of_one_document_equal_its_solo_run():
    # The two copies share every client and run at once: each copy's
    # first model call waits at a barrier until the other's arrives.
    barrier = threading.Barrier(2, timeout=5)
    jobs_seen = set()
    lock = threading.Lock()

    class Rendezvous(DelegatingLLMClient):
        blocking = True

        def complete(self, prompt, temperature=0.0):
            # A job's tracer carries the job id as its trace id.
            job = current_tracer().trace_id
            with lock:
                first = job not in jobs_seen
                jobs_seen.add(job)
            if first:
                barrier.wait()
            return self.inner.complete(prompt, temperature)

    service, schedule = make_service(wrap=Rendezvous, workers=4)
    # Document 2 draws three times; sharing a claim's draw numbers
    # across the copies changes its second copy's verdicts or spend.
    handles = [submit(service, schedule, 2) for _ in range(2)]
    service.start()
    try:
        for handle in handles:
            assert handle.wait(timeout=60)
            assert handle.state == "completed", handle.error
    finally:
        service.shutdown(drain=True)
    assert len(jobs_seen) == 2
    assert [outcome(handle) for handle in handles] == [solo(2)] * 2
