"""Integration tests for the verification service.

The acceptance contract of the subsystem:

* concurrent jobs well past the queue depth all complete, with verdicts
  identical to calling ``repro.verify`` directly;
* over-limit submissions are rejected with a structured reason
  (queue_full / client_limit / conflict / draining), never an exception
  from deep inside the executor;
* a cancelled job stops emitting events;
* graceful shutdown drains accepted jobs with no lost or duplicated
  ledger entries;
* each job is its own verifier run: jobs over one database never share
  a run, so one job's fault stays in that job;
* jobs over blocking clients run side by side, every model call on the
  one claims pool (``test_overlap.py`` pins the bound).

Deterministic tests use a *never-started* service: submissions queue up,
and ``shutdown(drain=True)`` runs them inline on the calling thread.
"""

import copy
import threading
import time

import pytest

from repro.core import ScheduleEntry, VerifierConfig, verify
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar
from repro.llm import CostLedger, LatencySimulatingClient
from repro.obs.tracer import current_tracer
from repro.service import (
    AdmissionError,
    ClaimVerdict,
    JobCancelled,
    JobDone,
    JobFailed,
    JobQueued,
    JobStarted,
    REASON_CLIENT_LIMIT,
    REASON_CONFLICT,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    ServiceConfig,
    StageStarted,
    VerificationService,
    clone_document,
)


def make_bundle():
    return build_aggchecker(document_count=3, total_claims=12)


def make_service(bundle, seed=0, **config_kwargs):
    """A service plus the front door's single-try three-stage schedule.

    The schedule's methods share the service ledger. A claim's retry
    draws (the sample re-pass runs at retry temperature) are numbered
    within its own job, so verdicts are a pure function of the seed no
    matter how jobs are interleaved or repeated.
    """
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(ledger=ledger,
                                                **config_kwargs))
    system = build_cedar(bundle, seed=seed,
                         config=VerifierConfig(ledger=ledger))
    schedule = [ScheduleEntry(method, 1) for method in system.methods[:3]]
    return service, schedule


def block(schedule):
    """Put each stage's model behind a 0 s sleep: blocking by type, so
    each job runs on its own thread and its calls on the claims pool."""
    for entry in schedule:
        entry.method.client = LatencySimulatingClient(entry.method.client,
                                                      0.0)


def baseline_verdicts(bundle, seed=0):
    """Per-claim verdicts from a direct ``repro.verify`` call."""
    system = build_cedar(bundle, seed=seed)
    schedule = [ScheduleEntry(method, 1) for method in system.methods[:3]]
    run = verify(bundle.documents, schedule=schedule)
    assert run is not None
    return {
        claim.claim_id: (claim.correct, claim.query)
        for document in bundle.documents
        for claim in document.claims
    }


class TestConcurrentAcceptance:
    def test_sixteen_jobs_through_a_depth_eight_queue(self):
        bundle = make_bundle()
        expected = baseline_verdicts(bundle)

        service, schedule = make_service(
            bundle, max_queue_depth=8, per_client_limit=4, workers=2,
        )
        service.start()
        handles = [None] * 16
        errors = []

        def submitter(index):
            document = clone_document(
                bundle.documents[index % 3], f"t{index:02d}"
            )
            while True:
                try:
                    handles[index] = service.submit(
                        document, schedule, client_id=f"client-{index}"
                    )
                    return
                except AdmissionError as error:
                    if error.reason.code != REASON_QUEUE_FULL:
                        errors.append(error)
                        return
                    time.sleep(0.005)  # back off and resubmit, as told

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert errors == []
            assert all(handle is not None for handle in handles)
            for handle in handles:
                assert handle.wait(timeout=30)
                assert handle.state == "completed"
        finally:
            service.shutdown(drain=True)

        # Every clone's verdicts match the direct verify() baseline.
        for handle in handles:
            run = handle.result()
            for document in run.documents:
                for claim in document.claims:
                    original_id = claim.claim_id.split("/", 1)[1]
                    assert (claim.correct, claim.query) == \
                        expected[original_id], claim.claim_id

        # And the streams saw the whole lifecycle.
        events = handles[0].events_snapshot()
        kinds = [type(event) for event in events]
        assert kinds[0] is JobQueued
        assert JobStarted in kinds and StageStarted in kinds
        first_run = handles[0].result()
        assert sum(1 for k in kinds if k is ClaimVerdict) == \
            len(first_run.documents[0].claims)
        assert type(events[-1]) is JobDone

    def test_overlapped_jobs_over_one_database_give_baseline_verdicts(
        self,
    ):
        # Eight jobs against one database run side by side on job
        # threads, sharing the database, the caches, the ledger and the
        # claims pool: no job's documents may be skipped or fed another
        # job's observer, and every verdict must match the direct
        # baseline.
        bundle = make_bundle()
        expected = baseline_verdicts(bundle)
        service, schedule = make_service(
            bundle, max_queue_depth=16, workers=2,
        )
        block(schedule)
        handles = [
            service.submit(clone_document(bundle.documents[0], f"p{i:02d}"),
                           schedule, client_id=f"client-{i}")
            for i in range(8)
        ]
        service.start()
        try:
            for handle in handles:
                assert handle.wait(timeout=30)
                assert handle.state == "completed", handle.error
        finally:
            service.shutdown(drain=True)
        for handle in handles:
            run = handle.result()
            for document in run.documents:
                for claim in document.claims:
                    original_id = claim.claim_id.split("/", 1)[1]
                    assert (claim.correct, claim.query) == \
                        expected[original_id], claim.claim_id

    def test_streamed_verdicts_match_final_reports(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        handle = service.submit(
            clone_document(bundle.documents[0], "s"), schedule
        )
        service.shutdown(drain=True)
        verdicts = {event.claim_id: event.verdict
                    for event in handle.events_snapshot()
                    if isinstance(event, ClaimVerdict)}
        run = handle.result()
        claims = run.documents[0].claims
        assert len(verdicts) == len(claims)
        for claim in claims:
            expected = "correct" if claim.correct else "incorrect"
            assert verdicts[claim.claim_id] == expected


class TestAdmissionControl:
    def test_queue_full_rejection(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle, max_queue_depth=2)
        for index in range(2):
            service.submit(clone_document(bundle.documents[0], f"q{index}"),
                           schedule)
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(clone_document(bundle.documents[0], "q2"),
                           schedule)
        assert excinfo.value.reason.code == REASON_QUEUE_FULL
        assert service.stats().jobs["rejected"] == 1
        service.shutdown(drain=False)

    def test_per_client_limit_rejection(self):
        bundle = make_bundle()
        service, schedule = make_service(
            bundle, max_queue_depth=8, per_client_limit=1
        )
        service.submit(clone_document(bundle.documents[0], "a0"), schedule,
                       client_id="alice")
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(clone_document(bundle.documents[0], "a1"),
                           schedule, client_id="alice")
        assert excinfo.value.reason.code == REASON_CLIENT_LIMIT
        # Another client still gets in.
        service.submit(clone_document(bundle.documents[0], "b0"), schedule,
                       client_id="bob")
        service.shutdown(drain=False)

    def test_conflicting_claim_ids_rejected(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        document = clone_document(bundle.documents[0], "dup")
        service.submit(document, schedule)
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(document, schedule)  # same claim ids, in flight
        assert excinfo.value.reason.code == REASON_CONFLICT
        service.shutdown(drain=False)

    def test_conflicting_doc_ids_rejected(self):
        # Distinct claim ids but a shared doc id must still be refused:
        # doc ids key the observer maps and the ledger's doc tags.
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        first = clone_document(bundle.documents[0], "doc-a")
        second = clone_document(bundle.documents[0], "doc-b")
        second.doc_id = first.doc_id
        service.submit(first, schedule)
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(second, schedule)
        assert excinfo.value.reason.code == REASON_CONFLICT
        service.shutdown(drain=False)

    def test_duplicate_doc_ids_within_a_submission_rejected(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        first = clone_document(bundle.documents[0], "twin-a")
        second = clone_document(bundle.documents[0], "twin-b")
        second.doc_id = first.doc_id
        with pytest.raises(AdmissionError) as excinfo:
            service.submit([first, second], schedule)
        assert excinfo.value.reason.code == REASON_CONFLICT
        service.shutdown(drain=False)

    def test_draining_service_rejects_submissions(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        service.shutdown(drain=True)
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(clone_document(bundle.documents[0], "late"),
                           schedule)
        assert excinfo.value.reason.code == REASON_DRAINING

    def test_claim_ids_released_after_completion(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        document = clone_document(bundle.documents[0], "again")
        service.submit(document, schedule)
        # Inline drain completes the job without ending the service's
        # accounting of it; resubmitting the same ids must now pass
        # admission (on a fresh, non-draining service).
        fresh, fresh_schedule = make_service(bundle)
        handle = fresh.submit(document, fresh_schedule)
        fresh.cancel(handle.job_id)
        resubmitted = fresh.submit(document, fresh_schedule)
        assert resubmitted.job_id != handle.job_id
        fresh.shutdown(drain=False)
        service.shutdown(drain=False)


class TestCancellation:
    def test_cancelled_queued_job_stops_emitting(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        victim = service.submit(clone_document(bundle.documents[0], "v"),
                                schedule)
        survivor = service.submit(clone_document(bundle.documents[1], "s"),
                                  schedule)
        assert victim.cancel() is True
        assert victim.cancel() is False  # second cancel loses
        service.shutdown(drain=True)

        events = victim.events_snapshot()
        assert type(events[-1]) is JobCancelled
        assert not any(isinstance(e, (JobStarted, StageStarted, ClaimVerdict))
                       for e in events)
        assert victim.state == "cancelled"
        # The events iterator terminates at the terminal event.
        assert [type(e) for e in victim.events(timeout=1)][-1] is JobCancelled
        # The other job ran to completion.
        assert survivor.state == "completed"
        assert service.stats().jobs["cancelled"] == 1

    def test_cancelled_job_result_raises(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        handle = service.submit(clone_document(bundle.documents[0], "c"),
                                schedule)
        handle.cancel()
        service.shutdown(drain=True)
        with pytest.raises(RuntimeError):
            handle.result(timeout=1)

    def test_cancel_refused_after_completion(self):
        # A terminal job must refuse cancellation: its stream is closed
        # by the (forced) JobDone and no JobCancelled may follow it.
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        handle = service.submit(clone_document(bundle.documents[0], "done"),
                                schedule)
        service.shutdown(drain=True)
        assert handle.state == "completed"
        assert handle.cancel() is False
        assert handle.state == "completed"
        events = handle.events_snapshot()
        assert type(events[-1]) is JobDone
        assert not any(isinstance(e, JobCancelled) for e in events)


class TestDrainAccounting:
    def test_drain_loses_and_duplicates_nothing(self):
        bundle = make_bundle()
        # Cache off: every model call lands in the ledger exactly once,
        # so the entry stream is directly comparable to a plain run.
        service, schedule = make_service(bundle, cache_size=0)
        clones = [clone_document(bundle.documents[index % 3], f"d{index}")
                  for index in range(6)]
        handles = [service.submit(clone, schedule) for clone in clones]
        service.shutdown(drain=True)
        assert all(handle.state == "completed" for handle in handles)

        # Baseline: the same six documents through the plain facade.
        system = build_cedar(bundle, seed=0)
        baseline_schedule = [ScheduleEntry(method, 1)
                             for method in system.methods[:3]]
        baseline = [clone_document(bundle.documents[index % 3], f"d{index}")
                    for index in range(6)]
        verify(baseline, schedule=baseline_schedule)
        expected = system.ledger.totals()

        got = service.ledger.totals()
        assert got.calls == expected.calls
        assert got.cost == pytest.approx(expected.cost)
        # Per-job spend partitions the ledger exactly: no call is billed
        # to two jobs, none is dropped.
        per_job = [
            next(e for e in handle.events_snapshot()
                 if isinstance(e, JobDone)).spend
            for handle in handles
        ]
        assert sum(spend["llm_calls"] for spend in per_job) == got.calls
        assert sum(spend["cost_usd"] for spend in per_job) == \
            pytest.approx(got.cost, abs=1e-5)


class TestBatching:
    """One verifier run per job: jobs over one database are never
    merged into one run."""

    def test_jobs_sharing_a_database_run_one_by_one(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        handles = [
            service.submit(clone_document(bundle.documents[0], f"b{index}"),
                           schedule)
            for index in range(4)
        ]
        service.shutdown(drain=True)
        assert "batches" not in service.stats().to_dict()
        for handle in handles:
            events = handle.events_snapshot()
            started = [e for e in events if isinstance(e, JobStarted)]
            assert len(started) == 1
            assert set(started[0].to_dict()) == {"event", "job_id", "ts"}
            assert started[0].job_id == handle.job_id
            # The job's spans are its own queue wait and its own
            # document, nothing of the three other jobs.
            roots = handle.spans()
            assert [span.kind for span in roots] == ["queue_wait",
                                                     "document"]
            assert roots[0].attributes["job_id"] == handle.job_id
            assert roots[1].attributes["doc_id"] == \
                handle.result().documents[0].doc_id

    def test_one_jobs_fault_stays_in_that_job(self):
        bundle = make_bundle()
        expected = baseline_verdicts(bundle)
        service, schedule = make_service(bundle)
        # The first stage raises for the claims of the bad/ clone's job
        # only; a job's tracer carries its job id as the trace id.
        poisoned = schedule[0].method
        real_translate = poisoned.translate

        def translate(*args, **kwargs):
            if current_tracer().trace_id == bad.job_id:
                raise RuntimeError("poisoned claim")
            return real_translate(*args, **kwargs)

        poisoned.translate = translate
        bad = service.submit(clone_document(bundle.documents[0], "bad"),
                             schedule)
        good = service.submit(clone_document(bundle.documents[0], "good"),
                              schedule)
        service.shutdown(drain=True)

        bad_events = bad.events_snapshot()
        failed = [e for e in bad_events if isinstance(e, JobFailed)]
        assert len(failed) == 1 and failed == bad_events[-1:]
        assert failed[0].error == "RuntimeError: poisoned claim"
        assert bad.state == "failed"
        assert good.state == "completed", good.error
        assert type(good.events_snapshot()[-1]) is JobDone
        for claim in good.result().documents[0].claims:
            original_id = claim.claim_id.split("/", 1)[1]
            assert (claim.correct, claim.query) == expected[original_id]
        assert service.stats().jobs["failed"] == 1

    def test_priority_orders_inline_drain(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        low = service.submit(clone_document(bundle.documents[0], "lo"),
                             schedule, priority=5)
        high = service.submit(clone_document(bundle.documents[1], "hi"),
                              schedule, priority=-5)
        service.shutdown(drain=True)
        started_at = {
            handle.job_id: next(e for e in handle.events_snapshot()
                                if isinstance(e, JobStarted)).ts
            for handle in (low, high)
        }
        assert started_at[high.job_id] < started_at[low.job_id]


class TestVerifierLifetime:
    def test_one_claims_pool_makes_every_blocking_call(self, claim_threads):
        """Fifty documents over fifty distinct databases: every model
        call, harvest attempts included, runs on one claims pool of
        ``workers`` threads (job threads only orchestrate), at most
        ``workers`` jobs run at once, and shutdown joins every thread."""
        call_threads = set()
        job_threads = set()
        peak_jobs = []
        lock = threading.Lock()
        before = claim_threads()
        bundle = make_bundle()
        service, schedule = make_service(
            bundle, workers=2, max_queue_depth=64, per_client_limit=64,
        )
        block(schedule)
        for entry in schedule:
            inner = entry.method.client.inner
            real_generate = inner._generate

            def generate(prompt, temperature, real_generate=real_generate):
                with service._lock:
                    running = set(service._job_threads)
                with lock:
                    # Thread objects, not idents: idents are recycled.
                    call_threads.add(threading.current_thread())
                    job_threads.update(running)
                    peak_jobs.append(len(running))
                return real_generate(prompt, temperature)

            inner._generate = generate
        handles = []
        for index in range(50):
            document = clone_document(bundle.documents[index % 3],
                                      f"d{index:02d}")
            document.data = copy.deepcopy(document.data)
            handles.append(service.submit(document, schedule))
        service.start()
        try:
            for handle in handles:
                assert handle.wait(timeout=60)
                assert handle.state == "completed", handle.error
            assert call_threads
            assert all(t.name.startswith("cedar-claim")
                       for t in call_threads)
            assert len(call_threads) <= 2
            assert len(claim_threads() - before) <= 2
            assert all(t.name.startswith("cedar-job") for t in job_threads)
            assert 0 < max(peak_jobs) <= 2
        finally:
            service.shutdown(drain=True)
        assert claim_threads() <= before
        assert not any(t.is_alive() for t in job_threads)

    def test_inline_drain_joins_its_claims_pool(self, claim_threads):
        before = claim_threads()
        bundle = make_bundle()
        service, schedule = make_service(bundle, workers=2)
        block(schedule)
        handle = service.submit(clone_document(bundle.documents[0], "i"),
                                schedule)
        service.shutdown(drain=True)
        assert handle.state == "completed", handle.error
        assert claim_threads() <= before


class TestStats:
    def test_stats_snapshot_shape(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle, cache_size=64)
        service.submit(clone_document(bundle.documents[0], "st"), schedule)
        service.shutdown(drain=True)
        stats = service.stats().to_dict()
        assert stats["queue_depth"] == 0
        assert stats["draining"] is True
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["ledger"]["calls"] > 0
        assert stats["cache"]["lookups"] > 0
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p95_seconds"] >= stats["latency"]["p50_seconds"]

    def test_events_serialise_to_json_lines(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        handle = service.submit(clone_document(bundle.documents[0], "js"),
                                schedule)
        service.shutdown(drain=True)
        import json
        for event in handle.events_snapshot():
            payload = json.loads(event.to_json())
            assert payload["event"] == type(event).kind
            assert payload["job_id"] == handle.job_id
