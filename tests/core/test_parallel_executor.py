"""Tests for the concurrent executor, response cache, retry layer, and
the ``repro.verify`` facade."""

import threading

import pytest

from repro.core import (
    MultiStageVerifier,
    OneShotMethod,
    ParallelVerifier,
    ScheduleEntry,
    VerificationObserver,
    VerifierConfig,
    verify,
)
from repro.core.claims import Claim, Document, Span
from repro.datasets import build_aggchecker
from repro.llm import (
    CachingLLMClient,
    CostLedger,
    LedgerDelta,
    LatencySimulatingClient,
    LLMCache,
    LLMClient,
    ResilientLLMClient,
    RetriesExhaustedError,
    RetryPolicy,
    ScriptedLLM,
    SimulatedLLM,
    TransportError,
)
from repro.obs.tracer import Tracer
from repro.sqlengine import Database, Table


def reset_claims(documents):
    for document in documents:
        for claim in document.claims:
            claim.correct = None
            claim.query = None


def blocking_client(client):
    """``client`` behind a wrapper that sleeps 0 s: blocking by type, so
    a parallel verifier fans its claims out over the pool."""
    return LatencySimulatingClient(client, 0.0)


def build_system(bundle, seed=0, config=None, blocking=False):
    """Two one-shot methods over the bundle's world, sharing one ledger;
    ``blocking`` puts each model behind :func:`blocking_client`."""
    config = config if config is not None else VerifierConfig()
    ledger = config.make_ledger()
    wrap = blocking_client if blocking else (lambda client: client)
    methods = [
        OneShotMethod(wrap(SimulatedLLM("gpt-3.5-turbo", bundle.world,
                                        ledger, seed=seed))),
        OneShotMethod(wrap(SimulatedLLM("gpt-4o", bundle.world, ledger,
                                        seed=seed + 1))),
    ]
    schedule = [ScheduleEntry(methods[0], 2), ScheduleEntry(methods[1], 1)]
    return ledger, schedule


def snapshot(bundle, run):
    return {
        claim.claim_id: (
            claim.correct,
            claim.query,
            run.reports[claim.claim_id].verified_by,
            run.reports[claim.claim_id].attempts,
        )
        for claim in bundle.claims
    }


def captured(ledger, verifier, documents, schedule, **kwargs):
    """Verify ``documents`` inside one capture of ``ledger``: the run and
    the entries it recorded, in order (absorbed into ``ledger`` too)."""
    with ledger.capture() as spent:
        run = verifier.verify_documents(documents, schedule, **kwargs)
    ledger.absorb(spent)
    return run, spent.entries


def parallel_run(bundle, blocking):
    """Six documents through a four-worker verifier, closed afterwards:
    its snapshot, reports, ledger entries and timeless span tree."""
    ledger, schedule = build_system(bundle, blocking=blocking)
    parallel = ParallelVerifier(
        config=VerifierConfig(workers=4, ledger=ledger)
    )
    tracer = Tracer(trace_id="t")
    reset_claims(bundle.documents)
    try:
        run, entries = captured(ledger, parallel, bundle.documents,
                                schedule, tracer=tracer)
    finally:
        parallel.close()
    return (snapshot(bundle, run), run.reports, entries,
            tracer.tree(include_times=False))


class TestSequentialParallelEquivalence:
    """The acceptance contract: fixed seed, no cache -> identical runs."""

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["pool", "inline"])
    def test_parallel_reproduces_sequential_run(self, blocking,
                                                started_threads):
        bundle = build_aggchecker(document_count=6, total_claims=30)

        ledger_seq, schedule = build_system(bundle)
        sequential = MultiStageVerifier(
            config=VerifierConfig(ledger=ledger_seq)
        )
        reset_claims(bundle.documents)
        run_seq, entries_seq = captured(ledger_seq, sequential,
                                        bundle.documents, schedule)
        seq_state = snapshot(bundle, run_seq)

        pool = parallel_run(bundle, blocking=True)
        claim_pool = [name for name in started_threads
                      if name.startswith("cedar-claim")]
        assert 0 < len(claim_pool) <= 4
        assert pool[0] == seq_state
        # Not just equal totals: the merge-on-join protocol reproduces the
        # sequential entry sequence byte for byte.
        assert pool[2] == entries_seq
        assert ledger_seq.totals() == LedgerDelta(entries_seq).totals()
        if blocking:
            return
        # Clients that never block run every claim on the calling
        # thread: no pool is built, and nothing observable changes.
        started_threads.clear()
        inline = parallel_run(bundle, blocking=False)
        assert not [name for name in started_threads
                    if name.startswith(("cedar-claim", "cedar-doc"))]
        assert inline == pool

    def test_lone_document_runs_on_the_calling_thread(self,
                                                      started_threads):
        """One document has nothing to fan out: no document pool is
        built for it, and ledger and span order match a sequential run."""
        bundle = build_aggchecker(document_count=1, total_claims=6)

        ledger_seq, schedule = build_system(bundle)
        tracer_seq = Tracer(trace_id="t")
        reset_claims(bundle.documents)
        run_seq, entries_seq = captured(
            ledger_seq, MultiStageVerifier(
                config=VerifierConfig(ledger=ledger_seq)
            ), bundle.documents, schedule, tracer=tracer_seq,
        )
        seq_state = snapshot(bundle, run_seq)

        ledger_par, schedule = build_system(bundle, blocking=True)
        parallel = ParallelVerifier(
            config=VerifierConfig(workers=4, ledger=ledger_par)
        )
        ran_on = []

        class Where(VerificationObserver):
            def document_started(self, document):
                ran_on.append(threading.current_thread())

        tracer_par = Tracer(trace_id="t")
        reset_claims(bundle.documents)
        try:
            run_par, entries_par = captured(
                ledger_par, parallel, bundle.documents, schedule,
                observer=Where(), tracer=tracer_par,
            )
        finally:
            parallel.close()

        assert ran_on == [threading.current_thread()]
        assert not [name for name in started_threads
                    if name.startswith("cedar-doc")]
        assert [name for name in started_threads
                if name.startswith("cedar-claim")]
        assert snapshot(bundle, run_par) == seq_state
        assert entries_par == entries_seq
        assert tracer_par.tree(include_times=False) \
            == tracer_seq.tree(include_times=False)

    def test_reused_pool_reproduces_fresh_sequential_runs(self, claim_threads):
        """One verifier, one claims pool, three different document sets:
        each run equals a fresh sequential verifier's. A pool thread that
        kept a ledger sink or an active tracer from an earlier task would
        swallow or misplace a later one's entries and spans."""
        before = claim_threads()
        ledger_par = CostLedger()
        parallel = ParallelVerifier(
            config=VerifierConfig(workers=4, ledger=ledger_par)
        )
        pools = set()
        try:
            # One document (runs on the calling thread), then two sets
            # that also fan documents out.
            for seed, documents in ((1, 1), (2, 4), (3, 2)):
                bundle = build_aggchecker(seed=seed, document_count=documents,
                                          total_claims=6 * documents)

                ledger_seq, schedule = build_system(bundle)
                tracer_seq = Tracer(trace_id="t")
                reset_claims(bundle.documents)
                run_seq, entries_seq = captured(
                    ledger_seq, MultiStageVerifier(
                        config=VerifierConfig(ledger=ledger_seq)
                    ), bundle.documents, schedule, tracer=tracer_seq,
                )
                seq_state = snapshot(bundle, run_seq)

                _, schedule = build_system(
                    bundle, config=VerifierConfig(ledger=ledger_par),
                    blocking=True,
                )
                tracer_par = Tracer(trace_id="t")
                reset_claims(bundle.documents)
                run_par, entries_par = captured(
                    ledger_par, parallel, bundle.documents, schedule,
                    tracer=tracer_par,
                )
                pools.add(parallel._claims_pool)

                assert snapshot(bundle, run_par) == seq_state
                assert run_par.reports == run_seq.reports
                assert entries_par == entries_seq
                assert tracer_par.tree(include_times=False) \
                    == tracer_seq.tree(include_times=False)
            assert len(pools) == 1 and None not in pools
            assert 0 < len(claim_threads() - before) <= 4
        finally:
            parallel.close()
        assert claim_threads() <= before
        parallel.close()  # idempotent

    def test_single_worker_parallel_is_sequential(self):
        bundle = build_aggchecker(document_count=3, total_claims=12)
        ledger, schedule = build_system(bundle)
        verifier = ParallelVerifier(config=VerifierConfig(ledger=ledger))
        reset_claims(bundle.documents)
        run = verifier.verify_documents(bundle.documents, schedule)
        assert len(run.reports) == len(bundle.claims)
        assert all(c.correct is not None for c in bundle.claims)


class TestCacheAccounting:
    def test_warm_rerun_hits_cache(self):
        bundle = build_aggchecker(document_count=3, total_claims=12)
        ledger = CostLedger()
        method = OneShotMethod(blocking_client(
            SimulatedLLM("gpt-4o", bundle.world, ledger, seed=0)
        ))
        verifier = ParallelVerifier(
            config=VerifierConfig(workers=2, cache_size=512, ledger=ledger)
        )
        schedule = [ScheduleEntry(method, 1)]

        reset_claims(bundle.documents)
        verifier.verify_documents(bundle.documents, schedule)
        cold = verifier.cache.stats()
        cold_calls = ledger.totals().calls
        assert cold.hits == 0 and cold.misses > 0

        reset_claims(bundle.documents)
        verifier.verify_documents(bundle.documents, schedule)
        warm = verifier.cache.stats()
        # tries=1 keeps every call at temperature 0, so the warm round is
        # answered entirely from cache: no new ledger entries at all.
        assert warm.hits == cold.misses
        assert warm.misses == cold.misses
        assert ledger.totals().calls == cold_calls

    def test_temperature_zero_hit_skips_inner_and_ledger(self):
        ledger = CostLedger()
        inner = ScriptedLLM(["hello"], ledger=ledger)
        client = CachingLLMClient(inner, LLMCache(8))
        first = client.complete("prompt", 0.0)
        second = client.complete("prompt", 0.0)
        assert second is first
        assert len(inner.calls) == 1
        assert ledger.totals().calls == 1  # the hit billed nothing
        assert client.cache.stats().hits == 1

    def test_positive_temperature_bypasses_cache(self):
        inner = ScriptedLLM(["a", "b"])
        client = CachingLLMClient(inner, LLMCache(8))
        client.complete("prompt", 0.5)
        client.complete("prompt", 0.5)
        # Assumption 1: retries must be independent draws, never replays.
        assert len(inner.calls) == 2
        assert client.cache.stats().bypasses == 2
        assert len(client.cache) == 0

    def test_clients_with_different_seeds_do_not_collide(self):
        world = build_aggchecker(document_count=1, total_claims=4).world
        cache = LLMCache(8)
        a = CachingLLMClient(SimulatedLLM("gpt-4o", world, seed=0), cache)
        b = CachingLLMClient(SimulatedLLM("gpt-4o", world, seed=1), cache)
        assert a._key("p", 0.0) != b._key("p", 0.0)

    def test_lru_eviction(self):
        inner = ScriptedLLM(["x"])
        client = CachingLLMClient(inner, LLMCache(2))
        for prompt in ("p1", "p2", "p3"):
            client.complete(prompt, 0.0)
        stats = client.cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2


class FlakyLLM(LLMClient):
    """Fails the first ``failures`` calls with ``error``, then answers."""

    def __init__(self, failures, ledger=None, error=TransportError,
                 text="recovered"):
        super().__init__("gpt-3.5-turbo", ledger)
        self.failures = failures
        self.error = error
        self.text = text
        self.attempts = 0

    def _generate(self, prompt, temperature):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.error("synthetic failure")
        return self.text


class TestRetry:
    def make_policy(self, slept, **overrides):
        defaults = dict(max_attempts=3, base_delay=0.01, sleep=slept.append)
        defaults.update(overrides)
        return RetryPolicy(**defaults)

    def test_transient_failure_retried_then_succeeds(self):
        ledger = CostLedger()
        slept = []
        client = ResilientLLMClient(
            FlakyLLM(2, ledger), self.make_policy(slept)
        )
        with ledger.capture() as spent:
            response = client.complete("prompt")
        ledger.absorb(spent)
        assert response.text == "recovered"
        assert client.inner.attempts == 3
        assert len(slept) == 2 and all(d > 0 for d in slept)
        # Both retries are in the ledger, neither as a surrender.
        assert ledger.retry_count == 2
        assert not any(e.gave_up for e in spent.events)

    def test_retries_exhausted(self):
        ledger = CostLedger()
        slept = []
        client = ResilientLLMClient(
            FlakyLLM(99, ledger), self.make_policy(slept)
        )
        with ledger.capture() as spent, \
                pytest.raises(RetriesExhaustedError) as excinfo:
            client.complete("prompt")
        ledger.absorb(spent)
        assert excinfo.value.attempts == 3
        assert client.inner.attempts == 3
        assert ledger.retry_count == 3
        events = spent.events
        assert len(events) == 3
        assert [e.gave_up for e in events] == [False, False, True]

    def test_permanent_failure_not_retried(self):
        client = ResilientLLMClient(
            FlakyLLM(99, error=ValueError), RetryPolicy(max_attempts=5)
        )
        with pytest.raises(ValueError):
            client.complete("prompt")
        assert client.inner.attempts == 1
        assert client.ledger.retry_count == 0

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.3, jitter=0.25)
        assert policy.delay_for(2, "tok") == policy.delay_for(2, "tok")
        assert policy.delay_for(1, "a") != policy.delay_for(1, "b")
        # nominal at attempt 9 is far past the cap; jitter stays within it
        assert policy.delay_for(9, "tok") <= 0.3 * 1.25

    def test_verifier_survives_transient_failures(self, attributed_spend):
        """End to end: a flaky method retried by the instrumented stack."""
        database = Database("d")
        database.add(Table("t", ["k", "v"], [("a", 3)]))
        claim = Claim("There are 3 things.", Span(2, 2),
                      "Intro. There are 3 things. Outro.")
        document = Document("d", [claim], database)
        ledger = CostLedger()
        method = OneShotMethod(FlakyLLM(
            1, ledger, text="```sql\nSELECT v FROM t WHERE k = 'a'\n```"
        ))
        verifier = MultiStageVerifier(config=VerifierConfig(
            ledger=ledger,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        ))
        tracer = Tracer(trace_id="t")
        run = verifier.verify_documents([document], [ScheduleEntry(method, 1)],
                                        tracer=tracer)
        assert claim.correct is True
        assert run.reports[claim.claim_id].verified_by == method.name
        assert ledger.retry_count == 1
        # The retry sits under the call's document and method span.
        assert attributed_spend(tracer) == [
            ("retry", "d", method.name, claim.claim_id),
            ("llm_call", "d", method.name, claim.claim_id),
        ]


class TestConcurrentLedger:
    def test_concurrent_mutation_from_many_threads(self):
        ledger = CostLedger()
        threads = 12
        per_thread = 50

        deltas = [None] * threads

        def work(index):
            for _ in range(per_thread):
                ledger.record(
                    model="m",
                    prompt_tokens=1,
                    completion_tokens=1,
                    cost=0.001,
                    latency_seconds=0.0,
                )
            ledger.record_retry(
                model="m", attempt=1, delay_seconds=0.0, error="e"
            )
            with ledger.capture() as deltas[index]:
                ledger.record("m", 1, 1, 0.001, 0.0)

        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert ledger.retry_count == threads
        assert ledger.totals().calls == threads * per_thread
        # Each thread's capture held only that thread's record.
        assert [len(delta.entries) for delta in deltas] == [1] * threads
        for delta in deltas:
            ledger.absorb(delta)
        assert ledger.totals().calls == threads * (per_thread + 1)

    def test_capture_absorb_preserves_order(self):
        ledger = CostLedger()
        with ledger.capture() as outer:
            with ledger.capture() as delta:
                ledger.record("m", 1, 0, 0.0, 0.0)
                ledger.record("m", 2, 0, 0.0, 0.0)
            assert outer.entries == []   # buffered, not yet merged
            ledger.record("m", 3, 0, 0.0, 0.0)
            ledger.absorb(delta)
        assert ledger.totals().calls == 0
        assert [e.prompt_tokens for e in outer.entries] == [3, 1, 2]
        ledger.absorb(outer)
        assert ledger.totals().prompt_tokens == 6


class TestVerifierConfigValidation:
    def test_config_sets_use_samples(self):
        verifier = MultiStageVerifier(config=VerifierConfig(use_samples=False))
        assert verifier.use_samples is False

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            VerifierConfig(workers=0)

    def test_cache_size_must_be_non_negative(self):
        with pytest.raises(ValueError):
            VerifierConfig(cache_size=-1)

    def test_negative_tries_rejected(self):
        method = OneShotMethod(ScriptedLLM(["x"]))
        with pytest.raises(ValueError):
            ScheduleEntry(method, -1)


class TestVerifyFacade:
    def make_document(self):
        database = Database("facade")
        database.add(Table("t", ["k", "v"], [("a", 3)]))
        claim = Claim("There are 3 things.", Span(2, 2),
                      "Intro. There are 3 things. Outro.")
        return Document("facade-doc", [claim], database), database

    def test_single_document_accepted(self):
        document, _ = self.make_document()
        method = OneShotMethod(
            ScriptedLLM(["```sql\nSELECT v FROM t WHERE k = 'a'\n```"])
        )
        run = verify(document, schedule=[ScheduleEntry(method, 1)])
        assert run.documents == [document]
        assert document.claims[0].correct is True
        assert isinstance(run.verifier, ParallelVerifier)

    def test_database_override(self):
        document, _ = self.make_document()
        other = Database("override")
        other.add(Table("t", ["k", "v"], [("a", 4)]))
        method = OneShotMethod(
            ScriptedLLM(["```sql\nSELECT v FROM t WHERE k = 'a'\n```"])
        )
        run = verify([document], other, schedule=[ScheduleEntry(method, 1)])
        assert document.data is other
        # Against the override the claim's 3 is contradicted by 4.
        assert document.claims[0].correct is False
        assert run.reports[document.claims[0].claim_id].plausible

    def test_facade_joins_its_claims_pool(self, claim_threads):
        before = claim_threads()
        bundle = build_aggchecker(document_count=1, total_claims=6)
        spawned = []

        class Recording(OneShotMethod):
            def translate(self, *args, **kwargs):
                spawned.append(threading.current_thread())
                return super().translate(*args, **kwargs)

        config = VerifierConfig(workers=4)
        method = Recording(blocking_client(
            SimulatedLLM("gpt-4o", bundle.world, config.make_ledger())
        ))
        reset_claims(bundle.documents)
        run = verify(bundle.documents, schedule=[ScheduleEntry(method, 2)],
                     config=config)
        assert all(c.correct is not None for c in bundle.claims)
        # The pool did run attempts, and none of its threads outlived
        # the call.
        assert any(t.name.startswith("cedar-claim") for t in spawned)
        assert claim_threads() <= before
        assert run.verifier._claims_pool is None

    def test_config_controls_ledger(self):
        document, _ = self.make_document()
        ledger = CostLedger()
        method = OneShotMethod(
            ScriptedLLM(["```sql\nSELECT v FROM t WHERE k = 'a'\n```"],
                        ledger=ledger)
        )
        run = verify(document, schedule=[ScheduleEntry(method, 1)],
                     config=VerifierConfig(ledger=ledger))
        assert run.verifier.ledger is ledger
        assert ledger.totals().calls == 1
