"""Multi-stage claim verification (paper Section 4, Algorithms 1-2).

CEDAR tries verification methods in schedule order, removing claims as
soon as a method produces a plausible translation. The first claim a
method verifies in a document is harvested as a few-shot sample for the
remaining claims (Algorithm 2's early return). Claims no method can
verify receive the paper's fallback verdict: *correct* if no method ever
produced an executable query (the claim is deemed unverifiable from the
data), *incorrect* if executable queries existed but none matched the
claimed value.

Verifier behaviour is configured through :class:`VerifierConfig`, which
both :class:`MultiStageVerifier` (sequential) and
:class:`~repro.core.executor.ParallelVerifier` (concurrent) consume.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import time

from repro.cache import SqliteCacheBackend
from repro.llm.base import ClaimDraws, LLMClient, claim_draws
from repro.llm.cache import CachingLLMClient, LLMCache
from repro.llm.ledger import CostLedger
from repro.llm.resilience import ResilientLLMClient, RetryPolicy
from repro.obs.tracer import NULL_TRACER, Tracer, current_tracer
from repro.sqlengine import Database, QueryResultCache, engine_for

from .claims import Claim, Document
from .masking import mask_claim
from .methods import Sample, VerificationMethod
from .plausibility import assess_query, claim_matches_result


@dataclass
class VerifierConfig:
    """Everything a verifier needs to know besides the schedule.

    One config object serves both executors: ``MultiStageVerifier``
    ignores ``workers`` and ``claims_pool`` (it is the ``workers=1``
    special case), while ``ParallelVerifier`` runs the model calls of
    the stages whose client blocks on a claims pool of that size
    (``workers`` is how many blocking calls it overlaps).
    ``cache_size > 0`` memoises temperature-0 completions (retries at
    temperature > 0 always bypass the cache — Assumption 1 needs them
    to be independent draws), and ``retry`` wraps every model call in
    transient-failure retry with backoff. A ``cache``
    *instance* wins over ``cache_size`` — the service layer passes one
    shared :class:`~repro.llm.cache.LLMCache` to every verifier it owns so
    requests warm each other's entries; it lends them its claims pool
    the same way.
    """

    workers: int = 1
    #: A claims pool lent by the caller, shared instead of owned: every
    #: blocking attempt of the verifier runs on it, and
    #: :meth:`~repro.core.executor.ParallelVerifier.close` leaves it
    #: running. The service lends one pool to every verifier it makes,
    #: so its size bounds the model calls in flight across all jobs.
    #: None (the default) lets the verifier build its own of ``workers``
    #: threads.
    claims_pool: ThreadPoolExecutor | None = None
    use_samples: bool = True
    cache_size: int = 0                    # 0 disables response caching
    cache: LLMCache | None = None          # shared instance, wins over size
    retry: RetryPolicy | None = None       # None disables retry/backoff
    ledger: CostLedger | None = None       # None means a fresh ledger
    #: SQL query-result cache, mirroring the LLM cache knobs: a shared
    #: instance wins over the size; size 0 disables result caching for
    #: the verifier's databases entirely (the determinism guard runs
    #: with it both on and off).
    sql_cache_size: int = 256
    sql_cache: QueryResultCache | None = None
    #: Span-tree tracer for the run (see :mod:`repro.obs`). None keeps
    #: the ambient tracer (:func:`repro.obs.tracer.current_tracer`),
    #: which is the no-op :data:`~repro.obs.tracer.NULL_TRACER` unless a
    #: caller activated one. Tracing never changes verdicts, ledger
    #: entries, or reports — the determinism guard holds with it on.
    tracer: Tracer | None = None
    #: Static SQL analyzer gate: when True (default), statically invalid
    #: candidate queries are rejected before execution and the agent's
    #: querying tool returns rendered diagnostics instead of runtime
    #: errors. False restores execute-to-discover behaviour; the
    #: determinism guard asserts reports are byte-identical both ways
    #: when no query is rejected.
    analyze_sql: bool = True
    #: Path of the persistent cache file (see :mod:`repro.cache`). With
    #: one, the LLM response and SQL result caches gain an L2 tier that
    #: survives restarts, and the LLM cache is enabled even when
    #: ``cache_size`` was left at 0 (a persistent tier without a cache in
    #: front of it would never be consulted). None (the default) keeps
    #: pure in-memory caching.
    cache_db: str | None = None
    _cache_backend: SqliteCacheBackend | None = field(
        default=None, init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.sql_cache_size < 0:
            raise ValueError("sql_cache_size must be non-negative")

    def make_ledger(self) -> CostLedger:
        return self.ledger if self.ledger is not None else CostLedger()

    def open_cache_db(self) -> SqliteCacheBackend | None:
        """The file behind ``cache_db``, opened once and shared by both
        caches this config makes; None without a path."""
        if self.cache_db is not None and self._cache_backend is None:
            self._cache_backend = SqliteCacheBackend(self.cache_db)
        return self._cache_backend

    def make_cache(self) -> LLMCache | None:
        if self.cache is not None:
            return self.cache
        l2 = self.open_cache_db()
        if self.cache_size > 0:
            return LLMCache(self.cache_size, l2=l2)
        if l2 is not None:
            return LLMCache(l2=l2)
        return None

    def make_sql_cache(self) -> QueryResultCache | None:
        if self.sql_cache is not None:
            return self.sql_cache
        if self.sql_cache_size > 0:
            return QueryResultCache(
                self.sql_cache_size, l2=self.open_cache_db(),
            )
        return None


@dataclass(frozen=True)
class ScheduleEntry:
    """One stage of a verification schedule: a method and its try budget.

    ``tries=0`` is an explicit *skip*: the stage is part of the schedule
    shape but consumes no budget and issues no calls. The DP scheduler
    never emits zero-try stages (they are stripped from every planned
    schedule); the value exists so ablations can toggle a stage off
    without renumbering the schedule. Negative budgets are rejected.
    """

    method: VerificationMethod
    tries: int = 1

    def __post_init__(self) -> None:
        if self.tries < 0:
            raise ValueError("tries must be non-negative")


@dataclass
class ClaimReport:
    """Per-claim bookkeeping produced by the verifier."""

    claim_id: str
    verified_by: str | None = None
    attempts: int = 0
    method_attempts: dict[str, int] = field(default_factory=dict)
    #: This verification's sampled draws per (client, world claim): the
    #: :func:`~repro.llm.base.claim_draws` scope of its attempts. Keyed
    #: by client identity, so two runs' reports never compare on it.
    draws: ClaimDraws = field(
        default_factory=dict, repr=False, compare=False
    )
    plausible: bool = False
    fallback: bool = False
    saw_executable: bool = False
    last_executable_query: str | None = None


@dataclass
class VerificationRun:
    """Result of verifying a batch of documents."""

    documents: list[Document]
    reports: dict[str, ClaimReport] = field(default_factory=dict)

    def report_for(self, claim: Claim) -> ClaimReport:
        return self.reports[claim.claim_id]


class VerificationObserver:
    """Streaming hooks into a verification run (every method a no-op).

    The service layer subclasses this to emit per-claim events the moment
    they land, instead of waiting for ``verify_documents`` to return.
    With a parallel executor the calls arrive from worker threads, so
    implementations must be thread-safe. Observers see state but never
    steer it — the one exception is :meth:`should_verify`, which lets a
    caller skip a document whose job was cancelled before its turn.
    Observer calls never influence verdicts, so the determinism contract
    of :mod:`repro.core.executor` is unaffected.
    """

    def should_verify(self, document: Document) -> bool:
        """Return False to skip a document (its claims stay unresolved)."""
        return True

    def document_started(self, document: Document) -> None:
        """Called once per document, before its first schedule stage."""

    def stage_started(self, document: Document, entry: ScheduleEntry) -> None:
        """Called when a schedule stage begins work on a document."""

    def claim_resolved(self, claim: Claim, report: ClaimReport) -> None:
        """Called when a claim reaches its final verdict (incl. fallback)."""


class MultiStageVerifier:
    """Executes Algorithm 1 over documents with a given schedule."""

    def __init__(self, config: VerifierConfig | None = None) -> None:
        config = config if config is not None else VerifierConfig()
        self.config = config
        self.ledger = config.make_ledger()
        #: When False, the few-shot sample harvesting of Algorithm 1 is
        #: disabled (ablation A2 in DESIGN.md).
        self.use_samples = config.use_samples
        #: Shared across runs of this verifier so repeat verification of
        #: the same documents hits warm entries. None when disabled.
        self.cache = config.make_cache()
        #: Query-result cache bound to every database this verifier
        #: touches (via the database's shared engine). None disables SQL
        #: result caching.
        self.sql_cache = config.make_sql_cache()
        #: Streaming hooks (see :class:`VerificationObserver`). Usually
        #: passed per run via ``verify_documents(..., observer=...)``.
        self.observer: VerificationObserver | None = None
        #: Span-tree tracer for the current run; resolved per call in
        #: :meth:`verify_documents` (argument > config > ambient).
        self.tracer: Tracer = (
            config.tracer if config.tracer is not None else NULL_TRACER
        )

    def verify_documents(
        self,
        documents: list[Document],
        schedule: list[ScheduleEntry],
        observer: VerificationObserver | None = None,
        tracer: Tracer | None = None,
    ) -> VerificationRun:
        """Verify every claim of every document (Algorithm 1).

        ``observer`` receives streaming progress callbacks for the
        duration of this run (it replaces any observer set as an
        attribute, which is restored afterwards). ``tracer`` overrides
        the config's tracer for this run only; when neither is set the
        ambient :func:`~repro.obs.tracer.current_tracer` is used (the
        no-op null tracer unless a caller activated one).
        """
        run = VerificationRun(documents)
        previous = self.observer
        if observer is not None:
            self.observer = observer
        previous_tracer = self.tracer
        if tracer is not None:
            self.tracer = tracer
        elif self.config.tracer is not None:
            self.tracer = self.config.tracer
        else:
            self.tracer = current_tracer()
        try:
            self._execute(documents, self._instrument(schedule), run)
        finally:
            self.observer = previous
            self.tracer = previous_tracer
        return run

    # -- execution strategy (overridden by ParallelVerifier) ----------------

    def _execute(
        self,
        documents: list[Document],
        schedule: list[ScheduleEntry],
        run: VerificationRun,
    ) -> None:
        tracer = self.tracer
        for document in documents:
            with tracer.activated(), \
                    tracer.span(
                        document.doc_id, "document",
                        doc_id=document.doc_id,
                        claims=len(document.claims),
                    ):
                self._verify_document(document, schedule, run)

    def _instrument(
        self, schedule: list[ScheduleEntry]
    ) -> list[ScheduleEntry]:
        """Stack the configured cache/retry wrappers onto every method.

        Methods are shallow-copied so the caller's objects keep their
        bare clients; all copies share one cache (and the verifier's
        ledger, through the wrapped clients). Disabling ``analyze_sql``
        is also applied here: the method copies carry the flag into the
        places the config cannot reach directly (the agent's querying
        tool and Algorithm 9 reconstruction).
        """
        analyzer_off = not self.config.analyze_sql
        if self.cache is None and self.config.retry is None \
                and not analyzer_off:
            return schedule
        instrumented = []
        for entry in schedule:
            client: LLMClient = entry.method.client
            if self.config.retry is not None:
                client = ResilientLLMClient(client, self.config.retry)
            if self.cache is not None:
                client = CachingLLMClient(client, self.cache)
            method = copy.copy(entry.method)
            method.client = client
            if analyzer_off:
                method.analyze_sql = False
            instrumented.append(ScheduleEntry(method, entry.tries))
        return instrumented

    # -- Algorithm 1 ---------------------------------------------------------

    def _verify_document(
        self,
        document: Document,
        schedule: list[ScheduleEntry],
        run: VerificationRun,
    ) -> None:
        for claim in document.claims:
            run.reports[claim.claim_id] = ClaimReport(claim.claim_id)
        observer = self.observer
        if observer is not None:
            if not observer.should_verify(document):
                return
            observer.document_started(document)
        remaining = list(document.claims)
        for entry in schedule:
            if entry.tries == 0:
                continue
            if observer is not None:
                observer.stage_started(document, entry)
            with self.tracer.span(
                entry.method.name, "stage",
                method=entry.method.name, tries=entry.tries,
                pending=len(remaining),
            ) as stage_span:
                sample: Sample | None = None
                for _ in range(entry.tries):
                    if not remaining:
                        break
                    if sample is None:
                        verified = self._verify_batch(
                            entry.method, remaining, None, document.data, run,
                            harvest_sample=self.use_samples,
                        )
                        remaining = _without(remaining, verified)
                        if verified and self.use_samples:
                            sample = _make_sample(verified[0])
                            more = self._verify_batch(
                                entry.method, remaining, sample,
                                document.data, run
                            )
                            remaining = _without(remaining, more)
                    else:
                        verified = self._verify_batch(
                            entry.method, remaining, sample, document.data, run
                        )
                        remaining = _without(remaining, verified)
                stage_span.set(unresolved=len(remaining))
            if not remaining:
                break
        for claim in remaining:
            self._apply_fallback(claim, run.reports[claim.claim_id])

    # -- Algorithm 2 ---------------------------------------------------------

    def _verify_batch(
        self,
        method: VerificationMethod,
        claims: list[Claim],
        sample: Sample | None,
        database: Database,
        run: VerificationRun,
        harvest_sample: bool = True,
    ) -> list[Claim]:
        """One Verify pass: apply one method to all remaining claims.

        Mirrors Algorithm 2, including the early return that hands the
        first verified claim back as a few-shot sample — suppressed when
        ``harvest_sample`` is False (the sample-free ablation), since the
        caller will not re-invoke with a sample and the remaining claims
        must be processed in this pass.
        """
        if sample is None and harvest_sample:
            # The harvest pass is inherently sequential: the scan stops at
            # the first verified claim, which becomes the sample.
            for claim in claims:
                if self._attempt_claim(
                    method, claim, None, database,
                    run.reports[claim.claim_id],
                ):
                    return [claim]
            return []
        # Past the harvest point (or with harvesting disabled) the
        # remaining claims are independent of one another — the hook the
        # parallel executor overrides to fan them out.
        return self._run_batch_independent(
            method, claims, sample, database, run
        )

    def _run_batch_independent(
        self,
        method: VerificationMethod,
        claims: list[Claim],
        sample: Sample | None,
        database: Database,
        run: VerificationRun,
    ) -> list[Claim]:
        """Apply one method to claims that share no state (sequentially)."""
        verified: list[Claim] = []
        for claim in claims:
            if self._attempt_claim(
                method, claim, sample, database, run.reports[claim.claim_id]
            ):
                verified.append(claim)
        return verified

    def _attempt_claim(
        self,
        method: VerificationMethod,
        claim: Claim,
        sample: Sample | None,
        database: Database,
        report: ClaimReport,
    ) -> bool:
        """One translation attempt for one claim; True when verified."""
        masked = mask_claim(claim)
        value_type = "numeric" if claim.is_numeric else ""
        # Temperature 0 for the first invocation of *this* method on
        # this claim, the method's retry temperature afterwards
        # (Section 7.1: 0.25 one-shot retries, 0.5 agent retries).
        prior_tries = report.method_attempts.get(method.name, 0)
        temperature = 0.0 if prior_tries == 0 else method.retry_temperature
        with self.tracer.span(
            method.name, "method",
            method=method.name, claim_id=claim.claim_id,
            attempt=prior_tries + 1, temperature=temperature,
        ) as method_span:
            with claim_draws(report.draws):
                translation = method.translate(
                    masked,
                    value_type,
                    claim.value,
                    claim.value_text,
                    database,
                    sample,
                    temperature,
                )
            report.attempts += 1
            report.method_attempts[method.name] = prior_tries + 1
            # One execution per candidate: CorrectQuery runs the SQL, and
            # CorrectClaim below reuses its result instead of re-executing.
            # The shared engine carries this verifier's result cache, so
            # repeated candidates across retries/stages are cache hits.
            engine = engine_for(database, self.sql_cache)
            sql_started = time.perf_counter()
            with self.tracer.span(
                "plausibility", "plausibility", claim_id=claim.claim_id,
            ) as check_span:
                assessment = assess_query(
                    translation.query, claim, database, engine,
                    analyze=self.config.analyze_sql,
                )
                check_span.set(
                    executable=assessment.executable,
                    plausible=assessment.plausible,
                )
            self.ledger.record_sql(time.perf_counter() - sql_started)
            if assessment.executable:
                report.saw_executable = True
                report.last_executable_query = translation.query
            if not assessment.plausible:
                method_span.set(verified=False)
                return False
            claim.query = translation.query
            claim.correct = claim_matches_result(assessment.result, claim)
            report.plausible = True
            report.verified_by = method.name
            method_span.set(verified=True, claim_correct=claim.correct)
        if self.observer is not None:
            self.observer.claim_resolved(claim, report)
        return True

    def _apply_fallback(self, claim: Claim, report: ClaimReport) -> None:
        """Verdict for claims no method verified (end of Section 4)."""
        report.fallback = True
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.clock()
            tracer.record(
                f"fallback:{claim.claim_id}", "claim", now, now,
                claim_id=claim.claim_id,
                saw_executable=report.saw_executable,
                verdict="incorrect" if report.saw_executable else "correct",
            )
        if report.saw_executable:
            claim.correct = False
            claim.query = report.last_executable_query
        else:
            claim.correct = True
            claim.query = None
        if self.observer is not None:
            self.observer.claim_resolved(claim, report)


def _make_sample(claim: Claim) -> Sample:
    masked = mask_claim(claim)
    assert claim.query is not None
    return Sample(masked.masked_sentence, claim.query)


def _without(claims: list[Claim], removed: list[Claim]) -> list[Claim]:
    removed_ids = {c.claim_id for c in removed}
    return [c for c in claims if c.claim_id not in removed_ids]
