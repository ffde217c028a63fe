"""Concurrent verification executor.

``MultiStageVerifier`` runs Algorithm 1 strictly sequentially. Per-claim
work is embarrassingly parallel across documents (each document carries
its own database, sample, and remaining-claims set), and within a
document every claim is independent once Algorithm 2's first-sample
harvest point has passed — the paper's cost model (Theorems 6.1-6.2)
already treats every try as an independent trial. ``ParallelVerifier``
exploits exactly those two axes:

* **documents** fan out over a worker pool;
* **post-harvest claims** of each document fan out over a second pool
  (two pools so a document task waiting on its claim tasks can never
  deadlock the workers the claim tasks need), which the verifier keeps
  from its first parallel run until :meth:`ParallelVerifier.close`.

Threads only pay where a model call can wait: under the GIL, calls that
are pure computation overlap nothing and the hand-offs cost time. So a
stage fans out only when its client is
:attr:`~repro.llm.base.LLMClient.blocking`; a stage whose client never
blocks runs its claims on the document thread, and a run in which no
stage blocks is the sequential run, with no pool at all.

Correctness contract: with a fixed seed and caching disabled, a parallel
run produces the *identical* per-claim verdicts and the identical ledger
entries as a sequential run. Three mechanisms make that hold:

1. the simulated model seeds retry draws per claim, not per client, so a
   claim's outcome does not depend on the interleaving of other claims;
2. each worker records into a private sub-ledger
   (:meth:`~repro.llm.ledger.CostLedger.capture`) that is merged back in
   submission order once the worker joins;
3. the harvest pass itself stays sequential — its early return is
   order-defined.

The module also hosts :func:`verify`, the package's front door.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait

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
    """Algorithm 1 over a thread pool; sequential when ``workers == 1``
    or when no stage's client is :attr:`~repro.llm.base.LLMClient.blocking`.

    The claims pool is created on the first run that needs it and lives
    until :meth:`close`, so a long-lived verifier (one per service
    dispatcher) pays for its ``workers`` threads once, not per batch.
    ``workers`` is how many blocking model calls a document overlaps;
    stages whose client never blocks run their claims inline.
    Pool threads keep no state between tasks: every task enters and
    leaves its own ledger/tracer capture. One thread at a time may call
    :meth:`verify_documents` on a verifier.
    """

    _claims_pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Join the claims pool's threads. Idempotent; a later run
        simply starts a new pool."""
        pool, self._claims_pool = self._claims_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _execute(
        self,
        documents: list[Document],
        schedule: list[ScheduleEntry],
        run: VerificationRun,
    ) -> None:
        if self.config.workers <= 1 or not documents or not any(
            entry.method.client.blocking for entry in schedule
        ):
            super()._execute(documents, schedule, run)
            return
        workers = self.config.workers
        # Created here, on the one thread that owns this verifier, so
        # document tasks never race to build it.
        if self._claims_pool is None:
            self._claims_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="cedar-claim"
            )

        def merge(result: tuple) -> None:
            # Called in submission order: the ledger ends up with the
            # same entry sequence — and the tracer with the same span
            # forest — a sequential run would have written.
            reports, delta, spans = result
            run.reports.update(reports)
            self.ledger.absorb(delta)
            self.tracer.absorb(spans)

        if len(documents) == 1:
            # Nothing to fan out: the lone document runs here,
            # through the same capture/absorb as a pool task.
            merge(self._document_task(documents[0], schedule))
            return
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="cedar-doc"
        ) as documents_pool:
            futures = [
                documents_pool.submit(self._document_task, doc, schedule)
                for doc in documents
            ]
            for future in futures:
                merge(future.result())

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

    def _run_batch_independent(
        self,
        method: VerificationMethod,
        claims: list[Claim],
        sample: Sample | None,
        database: Database,
        run: VerificationRun,
    ) -> list[Claim]:
        pool = self._claims_pool
        if pool is None or len(claims) <= 1 or not method.client.blocking:
            return super()._run_batch_independent(
                method, claims, sample, database, run
            )
        # Snapshot the document worker's tags (doc:…) so claim tasks on
        # pool threads attribute their calls identically to inline runs.
        tags = self.ledger.current_tags()
        tracer = self.tracer

        def attempt(claim: Claim) -> tuple[bool, LedgerDelta, SpanDelta]:
            with self.ledger.capture() as delta, self.ledger.scoped(tags), \
                    tracer.capture() as spans:
                verified = self._attempt_claim(
                    method, claim, sample, database,
                    run.reports[claim.claim_id],
                )
            return verified, delta, spans

        futures = [pool.submit(attempt, claim) for claim in claims]
        # The pool outlives this batch: a failed attempt must not leave
        # its siblings running into the next one.
        wait(futures)
        verified_claims: list[Claim] = []
        for claim, future in zip(claims, futures):
            verified, delta, spans = future.result()
            # Absorbed on the document thread in claim order, into the
            # document's own capture buffer (spans graft under the open
            # stage span, exactly where a sequential run put them).
            self.ledger.absorb(delta)
            tracer.absorb(spans)
            if verified:
                verified_claims.append(claim)
        return verified_claims


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
