"""Tests for the concurrent executor, response cache, retry layer, and
the ``repro.verify`` facade."""

import threading
import warnings

import pytest

from repro.core import (
    MultiStageVerifier,
    OneShotMethod,
    ParallelVerifier,
    ScheduleEntry,
    VerifierConfig,
    verify,
)
from repro.core.claims import Claim, Document, Span
from repro.datasets import build_aggchecker
from repro.llm import (
    CachingLLMClient,
    CostLedger,
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


def build_system(bundle, seed=0, config=None):
    """Two one-shot methods over the bundle's world, sharing one ledger."""
    config = config if config is not None else VerifierConfig()
    ledger = config.make_ledger()
    methods = [
        OneShotMethod(SimulatedLLM("gpt-3.5-turbo", bundle.world, ledger,
                                   seed=seed)),
        OneShotMethod(SimulatedLLM("gpt-4o", bundle.world, ledger,
                                   seed=seed + 1)),
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


class TestSequentialParallelEquivalence:
    """The acceptance contract: fixed seed, no cache -> identical runs."""

    def test_parallel_reproduces_sequential_run(self):
        bundle = build_aggchecker(document_count=6, total_claims=30)

        ledger_seq, schedule = build_system(bundle)
        sequential = MultiStageVerifier(
            config=VerifierConfig(ledger=ledger_seq)
        )
        reset_claims(bundle.documents)
        run_seq = sequential.verify_documents(bundle.documents, schedule)
        seq_state = snapshot(bundle, run_seq)

        ledger_par, schedule = build_system(bundle)
        parallel = ParallelVerifier(
            config=VerifierConfig(workers=4, ledger=ledger_par)
        )
        reset_claims(bundle.documents)
        run_par = parallel.verify_documents(bundle.documents, schedule)

        assert snapshot(bundle, run_par) == seq_state
        # Not just equal totals: the merge-on-join protocol reproduces the
        # sequential entry sequence byte for byte.
        assert ledger_par.entries == ledger_seq.entries

    def test_lone_document_runs_on_the_calling_thread(self):
        """One document has nothing to fan out: no document pool is
        built for it, and ledger and span order match a sequential run."""
        bundle = build_aggchecker(document_count=1, total_claims=6)

        ledger_seq, schedule = build_system(bundle)
        tracer_seq = Tracer(trace_id="t")
        reset_claims(bundle.documents)
        run_seq = MultiStageVerifier(
            config=VerifierConfig(ledger=ledger_seq)
        ).verify_documents(bundle.documents, schedule, tracer=tracer_seq)
        seq_state = snapshot(bundle, run_seq)

        ledger_par, schedule = build_system(bundle)
        parallel = ParallelVerifier(
            config=VerifierConfig(workers=4, ledger=ledger_par)
        )
        ran_on = []
        document_task = parallel._document_task

        def recording_task(document, schedule):
            ran_on.append(threading.current_thread())
            return document_task(document, schedule)

        parallel._document_task = recording_task
        tracer_par = Tracer(trace_id="t")
        reset_claims(bundle.documents)
        run_par = parallel.verify_documents(bundle.documents, schedule,
                                            tracer=tracer_par)

        assert ran_on == [threading.current_thread()]
        assert snapshot(bundle, run_par) == seq_state
        assert ledger_par.entries == ledger_seq.entries
        assert tracer_par.tree(include_times=False) \
            == tracer_seq.tree(include_times=False)

    def test_reused_pool_reproduces_fresh_sequential_runs(self, claim_threads):
        """One verifier, one claims pool, three different document sets:
        each run equals a fresh sequential verifier's. A pool thread that
        kept a ledger sink, a tag stack or an active tracer from an
        earlier task would swallow, mis-tag or misplace a later one's
        entries and spans."""
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
                run_seq = MultiStageVerifier(
                    config=VerifierConfig(ledger=ledger_seq)
                ).verify_documents(bundle.documents, schedule,
                                   tracer=tracer_seq)
                seq_state = snapshot(bundle, run_seq)

                _, schedule = build_system(
                    bundle, config=VerifierConfig(ledger=ledger_par)
                )
                tracer_par = Tracer(trace_id="t")
                checkpoint = len(ledger_par.entries)
                reset_claims(bundle.documents)
                run_par = parallel.verify_documents(
                    bundle.documents, schedule, tracer=tracer_par
                )
                pools.add(parallel._claims_pool)

                assert snapshot(bundle, run_par) == seq_state
                assert run_par.reports == run_seq.reports
                assert ledger_par.entries[checkpoint:] == ledger_seq.entries
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
        method = OneShotMethod(
            SimulatedLLM("gpt-4o", bundle.world, ledger, seed=0)
        )
        verifier = ParallelVerifier(
            config=VerifierConfig(workers=2, cache_size=512, ledger=ledger)
        )
        schedule = [ScheduleEntry(method, 1)]

        reset_claims(bundle.documents)
        verifier.verify_documents(bundle.documents, schedule)
        cold = verifier.cache.stats
        cold_calls = ledger.totals().calls
        assert cold.hits == 0 and cold.misses > 0

        reset_claims(bundle.documents)
        verifier.verify_documents(bundle.documents, schedule)
        warm = verifier.cache.stats
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
        assert len(ledger) == 1          # the hit billed nothing
        assert client.cache.stats.hits == 1

    def test_positive_temperature_bypasses_cache(self):
        inner = ScriptedLLM(["a", "b"])
        client = CachingLLMClient(inner, LLMCache(8))
        client.complete("prompt", 0.5)
        client.complete("prompt", 0.5)
        # Assumption 1: retries must be independent draws, never replays.
        assert len(inner.calls) == 2
        assert client.cache.stats.bypasses == 2
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
        stats = client.cache.stats
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
        response = client.complete("prompt")
        assert response.text == "recovered"
        assert client.inner.attempts == 3
        assert len(slept) == 2 and all(d > 0 for d in slept)
        # Both retries are in the ledger, neither as a surrender.
        assert ledger.retry_count == 2
        assert not any(e.gave_up for e in ledger.events)

    def test_retries_exhausted(self):
        ledger = CostLedger()
        slept = []
        client = ResilientLLMClient(
            FlakyLLM(99, ledger), self.make_policy(slept)
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client.complete("prompt")
        assert excinfo.value.attempts == 3
        assert client.inner.attempts == 3
        events = ledger.events
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

    def test_verifier_survives_transient_failures(self):
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
        run = verifier.verify_documents([document], [ScheduleEntry(method, 1)])
        assert claim.correct is True
        assert run.reports[claim.claim_id].verified_by == method.name
        assert ledger.retry_count == 1
        # The retry event carries the call's doc/method/claim tags.
        assert any(t.startswith("claim:") for t in ledger.events[0].tags)


class TestConcurrentLedger:
    def test_concurrent_mutation_from_many_threads(self):
        ledger = CostLedger()
        threads = 12
        per_thread = 50

        def work(index):
            with ledger.tagged(f"thread:{index}"):
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

        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert len(ledger) == threads * per_thread
        assert ledger.retry_count == threads
        assert ledger.totals().calls == threads * per_thread
        for index in range(threads):
            assert ledger.totals(f"thread:{index}").calls == per_thread

    def test_capture_absorb_preserves_order_and_tags(self):
        ledger = CostLedger()
        with ledger.tagged("outer"):
            with ledger.capture() as delta:
                ledger.record("m", 1, 0, 0.0, 0.0)
                ledger.record("m", 2, 0, 0.0, 0.0)
        assert len(ledger) == 0          # buffered, not yet merged
        ledger.absorb(delta)
        assert [e.prompt_tokens for e in ledger.entries] == [1, 2]
        assert ledger.entries[0].tags == ("outer",)

    def test_scoped_replays_tag_snapshot(self):
        ledger = CostLedger()
        with ledger.tagged("doc:1"):
            tags = ledger.current_tags()
        with ledger.scoped(tags):
            ledger.record("m", 1, 0, 0.0, 0.0)
        assert ledger.entries[0].tags == ("doc:1",)
        assert ledger.current_tags() == ()


class TestDeprecationShims:
    def test_positional_ledger_warns_but_works(self):
        ledger = CostLedger()
        with pytest.warns(DeprecationWarning):
            verifier = MultiStageVerifier(ledger)
        assert verifier.ledger is ledger

    def test_use_samples_keyword_warns_but_works(self):
        with pytest.warns(DeprecationWarning):
            verifier = MultiStageVerifier(use_samples=False)
        assert verifier.use_samples is False

    def test_warning_points_at_caller_site(self):
        # The shim must warn with stacklevel=2 so the filename/lineno in
        # the warning is the code constructing the verifier (this test),
        # not a frame inside repro.core.pipeline.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DeprecationWarning)
            MultiStageVerifier(CostLedger())
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert deprecations[0].filename == __file__

    def test_parallel_verifier_warning_points_at_caller_site(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DeprecationWarning)
            ParallelVerifier(use_samples=False)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert deprecations[0].filename == __file__

    def test_config_signature_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            verifier = MultiStageVerifier(
                config=VerifierConfig(use_samples=False)
            )
        assert verifier.use_samples is False


class TestVerifierConfigValidation:
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
        method = Recording(SimulatedLLM("gpt-4o", bundle.world,
                                        config.make_ledger()))
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
        assert len(ledger) == 1
