"""Concurrent verification executor.

``MultiStageVerifier`` runs Algorithm 1 strictly sequentially. Per-claim
work is embarrassingly parallel across documents (each document carries
its own database, sample, and remaining-claims set), and within a
document every claim is independent once Algorithm 2's first-sample
harvest point has passed — the paper's cost model (Theorems 6.1-6.2)
already treats every try as an independent trial. ``ParallelVerifier``
exploits exactly those two axes:

* **documents** fan out over a worker pool;
* **attempts** run on a second pool, the claims pool (two pools so a
  document task waiting on its attempts can never deadlock the workers
  the attempts need): the post-harvest claims of a document side by
  side, the harvest pass's one at a time. The verifier keeps its claims
  pool from its first parallel run until :meth:`ParallelVerifier.close`,
  or borrows one (:attr:`~repro.core.pipeline.VerifierConfig.claims_pool`)
  whose size then bounds the model calls of every borrower together.

Threads only pay where a model call can wait: under the GIL, calls that
are pure computation overlap nothing and the hand-offs cost time. So a
stage uses the claims pool only when its client is
:attr:`~repro.llm.base.LLMClient.blocking`; a stage whose client never
blocks runs its claims on the document thread, and a run in which no
stage blocks is the sequential run, with no pool at all.

Correctness contract: with a fixed seed and caching disabled, a parallel
run produces the *identical* per-claim verdicts and the identical ledger
entries as a sequential run. Three mechanisms make that hold:

1. the simulated model numbers a claim's retry draws within one claim's
   verification in one run (the :func:`~repro.llm.base.claim_draws`
   scope each attempt opens on the thread that runs it), so a claim's
   outcome depends neither on the interleaving of other claims nor on
   earlier runs;
2. each worker records into a private sub-ledger
   (:meth:`~repro.llm.ledger.CostLedger.capture`) that is merged back in
   submission order once the worker joins;
3. the harvest pass itself stays sequential — its early return is
   order-defined.

The module also hosts :func:`verify`, the package's front door.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, wait

from repro.llm.ledger import LedgerDelta
from repro.obs.tracer import SpanDelta
from repro.sqlengine import Database

from .claims import Claim, Document
from .methods import Sample, VerificationMethod
from .pipeline import (
    ClaimReport,
    MultiStageVerifier,
    ScheduleEntry,
    VerificationObserver,
    VerificationRun,
    VerifierConfig,
)


class ParallelVerifier(MultiStageVerifier):
    """Algorithm 1 over a thread pool; sequential when no stage's client
    is :attr:`~repro.llm.base.LLMClient.blocking`, or when ``workers == 1``
    and no pool was lent.

    Every attempt of a blocking stage runs on the claims pool, the
    harvest pass's included (submitted one at a time, so its order
    holds): the threads that walk the schedule only orchestrate, and
    the pool's size bounds the blocking model calls in flight. Stages
    whose client never blocks run their claims inline.

    The claims pool is the one :attr:`VerifierConfig.claims_pool` lends,
    or else the verifier's own, created on the first run that needs it
    and joined by :meth:`close`, so a long-lived verifier pays for its
    ``workers`` threads once. Pool threads keep no state between tasks:
    every task enters and leaves its own ledger/tracer capture. One
    thread at a time may call :meth:`verify_documents` on a verifier.
    """

    #: The pool this verifier built (None while it has none, or borrows).
    _claims_pool: ThreadPoolExecutor | None = None
    #: The pool the current run sends its blocking attempts to.
    _run_pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Join the claims pool's threads if this verifier built it (a
        lent pool belongs to its lender). Idempotent; a later run simply
        starts a new pool."""
        pool, self._claims_pool = self._claims_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _execute(
        self,
        documents: list[Document],
        schedule: list[ScheduleEntry],
        run: VerificationRun,
    ) -> None:
        pool = self.config.claims_pool
        if not documents or not any(
            entry.method.client.blocking for entry in schedule
        ) or (pool is None and self.config.workers <= 1):
            super()._execute(documents, schedule, run)
            return
        if pool is None:
            # Created here, on the one thread that owns this verifier, so
            # document tasks never race to build it.
            if self._claims_pool is None:
                self._claims_pool = ThreadPoolExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix="cedar-claim",
                )
            pool = self._claims_pool
        self._run_pool = pool
        try:
            if len(documents) == 1 or self.config.claims_pool is not None:
                # Documents in turn on this thread, their blocking
                # attempts overlapping on the pool. A lender overlaps
                # whole runs instead (the service runs one job per
                # thread), so a lent pool never gets document threads.
                super()._execute(documents, schedule, run)
                return
            with ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="cedar-doc",
            ) as documents_pool:
                futures = [
                    documents_pool.submit(self._document_task, doc, schedule)
                    for doc in documents
                ]
                # Merged in submission order: the ledger ends up with the
                # same entry sequence — and the tracer with the same span
                # forest — a sequential run would have written.
                for future in futures:
                    reports, delta, spans = future.result()
                    run.reports.update(reports)
                    self.ledger.absorb(delta)
                    self.tracer.absorb(spans)
        finally:
            self._run_pool = None

    def _document_task(
        self, document: Document, schedule: list[ScheduleEntry]
    ) -> tuple[dict[str, ClaimReport], LedgerDelta, SpanDelta]:
        """Verify one document into private report/ledger/span state."""
        local = VerificationRun([document])
        tracer = self.tracer
        with self.ledger.capture() as delta, \
                tracer.capture() as spans, \
                self.ledger.tagged(f"doc:{document.doc_id}"), \
                tracer.span(
                    document.doc_id, "document",
                    doc_id=document.doc_id, claims=len(document.claims),
                ):
            self._verify_document(document, schedule, local)
        return local.reports, delta, spans

    def _attempt_claim(
        self,
        method: VerificationMethod,
        claim: Claim,
        sample: Sample | None,
        database: Database,
        report: ClaimReport,
    ) -> bool:
        if self._run_pool is None or not method.client.blocking:
            return super()._attempt_claim(
                method, claim, sample, database, report
            )
        # A harvest attempt: on the pool like every blocking attempt,
        # waited for before the next one.
        return self._join([
            self._submit(method, claim, sample, database, report)
        ])[0]

    def _run_batch_independent(
        self,
        method: VerificationMethod,
        claims: list[Claim],
        sample: Sample | None,
        database: Database,
        run: VerificationRun,
    ) -> list[Claim]:
        if self._run_pool is None or not method.client.blocking:
            return super()._run_batch_independent(
                method, claims, sample, database, run
            )
        futures = [
            self._submit(method, claim, sample, database,
                         run.reports[claim.claim_id])
            for claim in claims
        ]
        return [claim for claim, verified in zip(claims, self._join(futures))
                if verified]

    def _submit(
        self,
        method: VerificationMethod,
        claim: Claim,
        sample: Sample | None,
        database: Database,
        report: ClaimReport,
    ) -> Future:
        assert self._run_pool is not None
        # Snapshot the submitting thread's tags (doc:…) so the attempt
        # attributes its calls identically to an inline run.
        return self._run_pool.submit(
            self._pooled_attempt, self.ledger.current_tags(),
            method, claim, sample, database, report,
        )

    def _pooled_attempt(
        self,
        tags: tuple[str, ...],
        method: VerificationMethod,
        claim: Claim,
        sample: Sample | None,
        database: Database,
        report: ClaimReport,
    ) -> tuple[bool, LedgerDelta, SpanDelta, Exception | None]:
        """One attempt on a pool thread, into private ledger/span state;
        a failure is returned, so its calls still reach the ledger."""
        error = None
        verified = False
        with self.ledger.capture() as delta, self.ledger.scoped(tags), \
                self.tracer.capture() as spans:
            try:
                verified = super()._attempt_claim(
                    method, claim, sample, database, report
                )
            except Exception as failure:
                error = failure
        return verified, delta, spans, error

    def _join(self, futures: list[Future]) -> list[bool]:
        """Wait for every attempt, then absorb each one's ledger and span
        delta on this thread in submission order — into the open stage
        span, exactly where a sequential run put them — and re-raise the
        first failure. The pool outlives the batch, so a failed attempt
        must not leave its siblings running into the next one."""
        wait(futures)
        verified: list[bool] = []
        error = None
        for future in futures:
            ok, delta, spans, failure = future.result()
            self.ledger.absorb(delta)
            self.tracer.absorb(spans)
            verified.append(ok)
            if error is None:
                error = failure
        if error is not None:
            raise error
        return verified


def verify(
    documents: list[Document] | Document,
    database: Database | None = None,
    *,
    schedule: list[ScheduleEntry],
    config: VerifierConfig | None = None,
    observer: VerificationObserver | None = None,
) -> VerificationRun:
    """Verify documents against their data: the package's front door.

    Accepts one document or a list. ``database`` is optional — documents
    normally carry their own :class:`~repro.sqlengine.Database`; passing
    one here overrides it for every document (the common case when many
    articles reference a single dataset). The ``config`` selects the
    execution strategy: ``workers=1`` (default) runs the classic
    sequential Algorithm 1, ``workers>1`` fans the stages whose model
    client blocks out over threads (see :class:`ParallelVerifier`), and
    the cache/retry settings apply to either. An ``observer``
    (:class:`~repro.core.pipeline.VerificationObserver`) receives
    streaming progress callbacks — stage starts and per-claim verdicts —
    as the run advances; ``repro.service`` uses this hook to stream
    events to clients while a batch is still in flight.

    Returns the :class:`VerificationRun`; the verifier (with its ledger
    and cache stats) is attached as ``run.verifier`` for inspection::

        run = repro.verify(docs, schedule=schedule,
                           config=VerifierConfig(workers=4, cache_size=512))
        print(run.verifier.ledger.total_cost)
    """
    if isinstance(documents, Document):
        documents = [documents]
    documents = list(documents)
    if database is not None:
        for document in documents:
            document.data = database
    config = config if config is not None else VerifierConfig()
    verifier = ParallelVerifier(config)
    try:
        run = verifier.verify_documents(documents, schedule, observer=observer)
    finally:
        verifier.close()
    run.verifier = verifier
    return run
