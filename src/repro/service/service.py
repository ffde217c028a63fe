"""The embeddable verification service.

``VerificationService`` turns the PR 1 engine (:class:`ParallelVerifier`
with its shared response cache, retry layer, and thread-safe ledger)
into something that can sit under concurrent traffic:

* **Admission control** — a bounded priority queue rejects-with-reason
  when full, per-client in-flight caps stop one caller from starving the
  rest, and claim-id conflicts with in-flight jobs are refused rather
  than silently corrupting shared state.
* **Micro-batching** — a dispatcher coalesces the jobs already queued
  whose batch key (database identity, schedule stages) matches into one
  ``verify_documents`` call on the dispatcher's long-lived verifier, so
  the response cache, claims pool, and ledger are amortised across
  requests instead of re-paid per call. It never waits for company: batches grow while a
  batch is running, and an idle service answers immediately.
* **Streaming** — every job exposes an event iterator (accepted → stage
  started → verdict → done) fed by the executor's
  :class:`~repro.core.pipeline.VerificationObserver` hooks, so callers
  see per-claim verdicts while the batch is still running.
* **Cancellation and drain** — a queued job cancels instantly; a running
  job stops emitting events and its remaining documents are skipped.
  ``shutdown(drain=True)`` refuses new work, flushes everything already
  accepted, and joins the dispatchers.

Submitted documents must carry doc ids and claim ids that are unique
among in-flight jobs (the observer maps, reports map, and ledger tags
key on them); use :func:`clone_document` to derive a uniquely-tagged
copy when submitting the same document many times.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.cache import SqliteCacheBackend, TieredCache
from repro.core import (
    ParallelVerifier,
    ScheduleEntry,
    VerificationObserver,
    VerificationRun,
    VerifierConfig,
)
from repro.core.claims import Claim, Document
from repro.core.pipeline import ClaimReport
from repro.core.reports import claim_record
from repro.llm.cache import LLMCache
from repro.llm.ledger import CostLedger
from repro.llm.resilience import RetryPolicy
from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    Tracer,
    annotate_critical_path,
)
from repro.sqlengine import QueryResultCache, engine_stats

from .events import (
    ClaimAccepted,
    ClaimVerdict,
    JobCancelled,
    JobDone,
    JobEvent,
    JobQueued,
    JobStarted,
    StageStarted,
)
from .events import JobFailed
from .queue import (
    REASON_CLIENT_LIMIT,
    REASON_CONFLICT,
    REASON_DRAINING,
    AdmissionError,
    BoundedJobQueue,
    RejectionReason,
)
from .stats import LatencyHistogram, ServiceStats

_log = logging.getLogger(__name__)

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: The interpreter's GIL switch interval in a serving process, seconds
#: (CPython's default is 0.005). A dispatcher running non-blocking stages
#: never waits, so the event loop writing a job's events gets the GIL
#: only when the interval forces a switch.
SWITCH_INTERVAL_SECONDS = 0.001


@dataclass
class ServiceConfig:
    """Service-level knobs plus the executor settings it builds on."""

    max_queue_depth: int = 64
    per_client_limit: int = 8       # queued + running jobs per client_id
    max_batch_jobs: int = 8         # jobs coalesced into one batch
    batch_window: float = 0.0       # seconds to linger for coalescible jobs
    dispatchers: int = 1            # batch-runner threads
    workers: int = 4                # blocking calls a dispatcher overlaps
    cache_size: int = 1024          # shared response cache; 0 disables
    sql_cache_size: int = 2048      # shared query-result cache; 0 disables
    #: Algorithm 1's few-shot sample harvesting. Note the re-pass it
    #: triggers runs at retry temperature, and those draws are
    #: independent across jobs (Assumption 1) — disable it when
    #: bit-identical verdicts across repeat submissions are required.
    use_samples: bool = True
    retry: RetryPolicy | None = None
    ledger: CostLedger | None = None
    #: Per-job span trees (queue wait + the document waterfall), served
    #: by ``GET /jobs/<id>/trace``. Tracing never changes verdicts or
    #: spend; disable it to shave the last few percent off hot batches.
    tracing: bool = True
    #: Path of the persistent cache file (see :mod:`repro.cache`): with
    #: one, the service's shared LLM and SQL-result caches gain a
    #: restart-surviving L2 tier (its stats appear in ``/v1/stats`` under
    #: ``cache.tiers`` and ``sql.result_cache.tiers``). None keeps the
    #: pure in-memory behaviour.
    cache_db: str | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.per_client_limit < 1:
            raise ValueError("per_client_limit must be at least 1")
        if self.max_batch_jobs < 1:
            raise ValueError("max_batch_jobs must be at least 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.dispatchers < 1:
            raise ValueError("dispatchers must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.sql_cache_size < 0:
            raise ValueError("sql_cache_size must be non-negative")


def clone_document(document: Document, tag: str) -> Document:
    """A verification-fresh copy of ``document`` with ``tag``-unique ids.

    Claims are re-created with cleared ``query``/``correct`` state and
    ids prefixed by ``tag``; the database (and claim metadata) is shared,
    not copied. This is how the HTTP front end lets many requests verify
    the same dataset document concurrently without mutating one shared
    object — and since the simulated-LLM world keys on sentences, clones
    verify identically to the original.
    """
    claims = [
        Claim(
            sentence=claim.sentence,
            span=claim.span,
            context=claim.context,
            claim_id=f"{tag}/{claim.claim_id}",
            metadata=claim.metadata,
        )
        for claim in document.claims
    ]
    return Document(
        doc_id=f"{tag}/{document.doc_id}",
        claims=claims,
        data=document.data,
        domain=document.domain,
        title=document.title,
    )


def _render_cache(cache: TieredCache) -> dict:
    """A cache's ``/v1/stats`` rendering, split per tier when it has an
    L2 (``cache.tiers``, ``sql.result_cache.tiers``)."""
    rendered = cache.stats().to_dict()
    if cache.has_l2:
        rendered["tiers"] = cache.tier_stats()
    return rendered


class Job:
    """One accepted verification request and its event stream."""

    def __init__(
        self,
        job_id: str,
        documents: list[Document],
        schedule: list[ScheduleEntry],
        client_id: str,
        priority: int,
        trace_context: dict | None = None,
    ) -> None:
        self.job_id = job_id
        self.documents = documents
        self.schedule = schedule
        self.client_id = client_id
        self.priority = priority
        #: Distributed-trace parentage handed in by a cluster router
        #: (``{"trace_id", "parent_span"}``); None for direct callers.
        self.trace_context = trace_context
        self.state = QUEUED
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.run: VerificationRun | None = None
        self.spend: dict | None = None
        self.error: str | None = None
        #: Root spans filed under this job (queue_wait + one document
        #: span per document) once its batch completes.
        self.spans: list[Span] = []
        self._events: list[JobEvent] = []
        self._cond = threading.Condition()
        self._cancelled = False
        self._closed = False
        self._wake_hooks: set[Callable[[], None]] = set()

    # -- event stream --------------------------------------------------------

    def emit(self, event: JobEvent, force: bool = False) -> None:
        """Append an event; after cancellation only forced (terminal)
        events get through — a cancelled job stops emitting."""
        with self._cond:
            if self._closed or (self._cancelled and not force):
                return
            self._events.append(event)
            if event.terminal:
                self._closed = True
            self._cond.notify_all()
            for hook in self._wake_hooks:
                hook()

    @contextlib.contextmanager
    def wake_hook(self, hook: Callable[[], None]) -> Iterator[None]:
        """Call ``hook`` on every emit while the block runs — how a
        follower on an event loop learns there is something to drain.
        It runs under the job's condition, so it must only schedule."""
        with self._cond:
            self._wake_hooks.add(hook)
        try:
            yield
        finally:
            with self._cond:
                self._wake_hooks.discard(hook)

    def events_from(self, index: int,
                    timeout: float | None) -> list[JobEvent]:
        """Every event from ``index`` on, blocking until there is one
        (empty once the stream ended): one condition acquisition per
        wake-up however many events landed meanwhile."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: len(self._events) > index or self._closed, timeout
            ):
                raise TimeoutError(f"no event {index} for job "
                                   f"{self.job_id} within {timeout}s")
            return self._events[index:]

    def events_snapshot(self) -> list[JobEvent]:
        with self._cond:
            return list(self._events)

    def wait(self, timeout: float | None = None) -> bool:
        """True once the job reached a terminal event."""
        with self._cond:
            return self._cond.wait_for(lambda: self._closed, timeout)

    # -- cancellation --------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def request_cancel(self) -> bool:
        with self._cond:
            if self._closed or self._cancelled:
                return False
            self._cancelled = True
            return True

    def claim_ids(self) -> list[str]:
        return [c.claim_id for d in self.documents for c in d.claims]


class JobHandle:
    """Caller-facing view of a submitted job."""

    def __init__(self, job: Job, service: "VerificationService") -> None:
        self._job = job
        self._service = service

    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def state(self) -> str:
        return self._job.state

    @property
    def error(self) -> str | None:
        return self._job.error

    def bursts(
        self, timeout: float | None = None,
    ) -> Iterator[list[JobEvent]]:
        """Yield the events in whatever bursts they are ready: all that
        landed since the last one, ending with the burst that carries
        the terminal event.

        ``timeout`` bounds the wait for each *next* burst; exceeding it
        raises :class:`TimeoutError`.
        """
        index = 0
        while True:
            burst = self._job.events_from(index, timeout)
            if not burst:
                return
            yield burst
            index += len(burst)
            if burst[-1].terminal:
                return

    def events(self, timeout: float | None = None) -> Iterator[JobEvent]:
        """Yield events as they land, ending after the terminal event.

        ``timeout`` bounds the wait for each *next* event; exceeding it
        raises :class:`TimeoutError`.
        """
        for burst in self.bursts(timeout):
            yield from burst

    def events_snapshot(self) -> list[JobEvent]:
        """The events emitted so far, without blocking."""
        return self._job.events_snapshot()

    def events_from(self, index: int,
                    timeout: float | None) -> list[JobEvent]:
        """See :meth:`Job.events_from`."""
        return self._job.events_from(index, timeout)

    def wake_hook(self, hook: Callable[[], None]
                  ) -> contextlib.AbstractContextManager[None]:
        """See :meth:`Job.wake_hook`."""
        return self._job.wake_hook(hook)

    def wait(self, timeout: float | None = None) -> bool:
        return self._job.wait(timeout)

    def cancel(self) -> bool:
        return self._service.cancel(self.job_id)

    def result(self, timeout: float | None = None) -> VerificationRun:
        """Block until done and return the job's VerificationRun."""
        if not self._job.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still {self._job.state}")
        if self._job.state == COMPLETED:
            assert self._job.run is not None
            return self._job.run
        raise RuntimeError(
            f"job {self.job_id} {self._job.state}"
            + (f": {self._job.error}" if self._job.error else "")
        )

    def spans(self) -> list[Span]:
        """Root spans filed under this job (populated at completion)."""
        return list(self._job.spans)

    def trace_context(self) -> dict | None:
        """The upstream trace context the job was submitted with."""
        return self._job.trace_context


class _StreamingObserver(VerificationObserver):
    """Fan one batch's verifier progress out to each job's event stream.

    Called from verifier worker threads; Job.emit is the synchronisation
    point. Documents of cancelled jobs are skipped via ``should_verify``.
    """

    def __init__(
        self, doc_jobs: dict[str, Job], claim_jobs: dict[str, Job]
    ) -> None:
        self._doc_jobs = doc_jobs
        self._claim_jobs = claim_jobs

    def should_verify(self, document: Document) -> bool:
        job = self._doc_jobs.get(document.doc_id)
        return job is not None and not job.cancelled

    def stage_started(self, document: Document, entry: ScheduleEntry) -> None:
        job = self._doc_jobs.get(document.doc_id)
        if job is not None:
            job.emit(StageStarted(
                job_id=job.job_id,
                doc_id=document.doc_id,
                method=entry.method.name,
                tries=entry.tries,
            ))

    def claim_resolved(self, claim: Claim, report: ClaimReport) -> None:
        job = self._claim_jobs.get(claim.claim_id)
        if job is not None:
            record = claim_record(claim, report)
            job.emit(ClaimVerdict(
                job_id=job.job_id,
                claim_id=claim.claim_id,
                verdict=record["verdict"],
                query=record["query"],
                verified_by=record["verified_by"],
                attempts=record["attempts"],
                fallback=record["fallback"],
            ))


class VerificationService:
    """Accepts, batches, executes, and streams verification jobs."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.ledger = (
            self.config.ledger
            if self.config.ledger is not None else CostLedger()
        )
        #: The opened persistent tier (None without a cache_db) — one
        #: sqlite file shared by both caches below.
        self.l2 = (
            SqliteCacheBackend(self.config.cache_db)
            if self.config.cache_db is not None else None
        )
        #: One response cache shared by every verifier the service owns,
        #: so requests warm each other's entries (the cross-request half
        #: of the PR 1 cache).
        self.cache = (
            LLMCache(self.config.cache_size, l2=self.l2)
            if self.config.cache_size > 0 else None
        )
        #: One query-result cache shared the same way: jobs that verify
        #: against the same database re-use each other's SQL results
        #: (keys carry the database content fingerprint, so mutation
        #: invalidates).
        self.sql_cache = (
            QueryResultCache(self.config.sql_cache_size, l2=self.l2)
            if self.config.sql_cache_size > 0 else None
        )
        self._queue = BoundedJobQueue(self.config.max_queue_depth)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        self._inflight: dict[str, int] = {}
        self._active_claim_ids: set[str] = set()
        self._active_doc_ids: set[str] = set()
        self._job_seq = itertools.count(1)
        self._batch_seq = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = False
        self._started = False
        self._counts = {"submitted": 0, "completed": 0, "failed": 0,
                        "cancelled": 0, "rejected": 0}
        self._batches = 0
        self._batched_jobs = 0
        self._max_batch = 0
        self._running_jobs = 0
        self._histogram = LatencyHistogram()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "VerificationService":
        """Launch the dispatcher threads (idempotent).

        Also sets the interpreter's switch interval to
        :data:`SWITCH_INTERVAL_SECONDS`, so a thread waiting for the GIL
        behind a busy dispatcher (the event loop streaming verdicts)
        gets it within 1 ms. The setting is process-wide and stays after
        :meth:`shutdown`.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
            sys.setswitchinterval(SWITCH_INTERVAL_SECONDS)
            _log.info("service_started", extra={"fields": {
                "dispatchers": self.config.dispatchers,
                "workers": self.config.workers,
            }})
            for index in range(self.config.dispatchers):
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"cedar-dispatch-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def begin_drain(self) -> None:
        """Flip to draining without blocking: new submissions are
        refused (``/readyz`` goes 503) while dispatchers keep flushing
        what was already accepted. Safe to call from a signal handler;
        follow with :meth:`shutdown` to actually wait the drain out.
        """
        with self._lock:
            self._draining = True
        _log.info("drain_started",
                  extra={"fields": {"queue_depth": len(self._queue)}})

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop the service, refusing new submissions immediately.

        ``drain=True`` flushes every job already accepted (queued and
        running) before returning; ``drain=False`` cancels the queued
        jobs and only lets in-flight batches finish. On a service that
        was never started, draining runs the queued jobs inline on the
        calling thread — handy for one-shot embedding and tests.
        """
        with self._lock:
            self._draining = True
            started = self._started
        if not drain:
            while True:
                job = self._queue.pop(timeout=0)
                if job is None:
                    break
                job.request_cancel()
                self._finalize(job, CANCELLED)
        if not started and drain:
            # Never started (one-shot embedding, deterministic tests):
            # run what is queued on the calling thread.
            self._dispatch_loop(timeout=0)
        self._stop.set()
        # No offer can follow the draining flag, so closing now lets the
        # dispatchers flush what is queued and then return from pop().
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout)
        _log.info("service_stopped", extra={"fields": {"drained": drain}})

    def __enter__(self) -> "VerificationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """True while the service accepts new submissions.

        Liveness and readiness are distinct probes: a draining service
        is still *alive* (it answers requests, flushes jobs) but not
        *ready* (submits are refused). ``GET /readyz`` reports this.
        """
        return not (self._draining or self._stop.is_set())

    @property
    def queue_depth(self) -> int:
        """Jobs accepted but not yet picked up by a dispatcher."""
        return len(self._queue)

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        documents: Sequence[Document] | Document,
        schedule: list[ScheduleEntry],
        *,
        client_id: str = "default",
        priority: int = 0,
        trace_context: dict | None = None,
    ) -> JobHandle:
        """Admit a job or raise :class:`AdmissionError` with the reason.

        ``trace_context`` (``{"trace_id", "parent_span"}``) marks the
        job as part of a distributed trace — the cluster router passes
        its own per-job root here so the worker's span tree can be
        stitched under it (docs/observability.md).
        """
        if isinstance(documents, Document):
            documents = [documents]
        documents = list(documents)
        if not documents:
            raise ValueError("submit needs at least one document")
        if not schedule:
            raise ValueError("submit needs a non-empty schedule")
        with self._lock:
            if self._draining or self._stop.is_set():
                self._counts["rejected"] += 1
                _log.warning("job_rejected", extra={"fields": {
                    "reason": REASON_DRAINING, "client_id": client_id,
                }})
                raise AdmissionError(RejectionReason(
                    REASON_DRAINING,
                    "service is draining and not accepting new jobs",
                ))
            inflight = self._inflight.get(client_id, 0)
            if inflight >= self.config.per_client_limit:
                self._counts["rejected"] += 1
                _log.warning("job_rejected", extra={"fields": {
                    "reason": REASON_CLIENT_LIMIT, "client_id": client_id,
                    "inflight": inflight,
                }})
                raise AdmissionError(RejectionReason(
                    REASON_CLIENT_LIMIT,
                    f"client {client_id!r} already has {inflight} jobs in "
                    f"flight (limit {self.config.per_client_limit})",
                ))
            # Doc ids key the observer maps and ledger tags, claim ids
            # key the reports map — both must be unique in flight or a
            # coalesced batch misroutes events and double-bills spend.
            claim_ids = [c.claim_id for d in documents for c in d.claims]
            doc_ids = [d.doc_id for d in documents]
            if (
                len(set(claim_ids)) != len(claim_ids)
                or len(set(doc_ids)) != len(doc_ids)
                or any(cid in self._active_claim_ids for cid in claim_ids)
                or any(did in self._active_doc_ids for did in doc_ids)
            ):
                self._counts["rejected"] += 1
                _log.warning("job_rejected", extra={"fields": {
                    "reason": REASON_CONFLICT, "client_id": client_id,
                }})
                raise AdmissionError(RejectionReason(
                    REASON_CONFLICT,
                    "doc or claim ids overlap a job already in flight; "
                    "submit clone_document() copies instead",
                ))
            job = Job(
                job_id=f"job-{next(self._job_seq):06d}",
                documents=documents,
                schedule=schedule,
                client_id=client_id,
                priority=priority,
                trace_context=trace_context,
            )
            # Admission events go on the stream before the job becomes
            # poppable, so JobStarted can never precede JobQueued.
            job.emit(JobQueued(job_id=job.job_id, priority=priority,
                               queue_depth=len(self._queue) + 1))
            for document in documents:
                for claim in document.claims:
                    job.emit(ClaimAccepted(job_id=job.job_id,
                                           claim_id=claim.claim_id,
                                           sentence=claim.sentence))
            try:
                self._queue.offer(job, priority)
            except AdmissionError:
                self._counts["rejected"] += 1
                raise
            self._jobs[job.job_id] = job
            self._inflight[client_id] = inflight + 1
            self._active_claim_ids.update(claim_ids)
            self._active_doc_ids.update(doc_ids)
            self._counts["submitted"] += 1
        _log.info("job_accepted", extra={"fields": {
            "job_id": job.job_id, "client_id": client_id,
            "priority": priority, "documents": len(documents),
            "claims": len(claim_ids),
            **({"upstream_trace": trace_context["trace_id"]}
               if trace_context else {}),
        }})
        return JobHandle(job, self)

    def job(self, job_id: str) -> JobHandle | None:
        with self._lock:
            job = self._jobs.get(job_id)
        return JobHandle(job, self) if job is not None else None

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if this call won the cancellation.

        A still-queued job is finalised immediately; a running one stops
        emitting events and is finalised when its batch completes. A job
        whose state is already terminal refuses the cancel (checked
        under the service lock, the same lock :meth:`_finalize` sets the
        state under). A cancel that lands in the instant a batch is
        finishing may still see the job complete — the terminal
        ``JobDone`` is emitted forced, so the stream closes either way.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in _TERMINAL_STATES:
                return False
            if not job.request_cancel():
                return False
        if self._queue.remove(job):
            self._finalize(job, CANCELLED)
        return True

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, timeout: float | None = None) -> None:
        """Run batches on one verifier until the queue has nothing more.

        The verifier, and with it the ``workers`` claim threads of its
        pool (built only once a stage's client blocks), belongs to the
        calling thread for as long as it dispatches. Verifiers hold no
        per-database state, so batches share nothing mutable but the
        thread-safe ledger and caches, and the service runs at most
        ``dispatchers × workers`` claim threads however many databases
        it serves.
        """
        verifier = ParallelVerifier(config=VerifierConfig(
            workers=self.config.workers,
            use_samples=self.config.use_samples,
            cache=self.cache,
            retry=self.config.retry,
            ledger=self.ledger,
            sql_cache=self.sql_cache,
            sql_cache_size=self.config.sql_cache_size,
        ))
        try:
            while True:
                job = self._queue.pop(timeout)
                if job is None:  # timed out, or closed and empty
                    return
                self._run_batch(self._coalesce(job), verifier)
        finally:
            verifier.close()

    def _coalesce(self, first: Job) -> list[Job]:
        """The micro-batcher: gather queued jobs sharing a batch key.

        Batches form by themselves: whatever same-key jobs queued up
        while the previous batch ran are swept into this one, and an
        idle service runs a lone job at once. ``batch_window`` > 0 adds
        a timed linger before the sweep (an embedder's opt-in trade of
        latency for batch size).
        """
        if self.config.batch_window > 0 and not self._stop.is_set():
            time.sleep(self.config.batch_window)
        key = self._batch_key(first)
        extra = self._queue.pop_matching(
            lambda other: self._batch_key(other) == key,
            self.config.max_batch_jobs - 1,
        )
        return [first, *extra]

    @staticmethod
    def _batch_key(job: Job) -> tuple:
        """Jobs coalesce when they verify against the same databases with
        the same schedule stages (identical method objects and budgets)."""
        databases = tuple(sorted({id(doc.data) for doc in job.documents}))  # cedarlint: disable=CDL013
        stages = tuple((id(entry.method), entry.tries)
                       for entry in job.schedule)
        return (databases, stages)

    def _run_batch(
        self, batch: list[Job], verifier: ParallelVerifier
    ) -> None:
        batch_id = next(self._batch_seq)
        runnable: list[Job] = []
        for job in batch:
            if job.cancelled:
                self._finalize(job, CANCELLED)
            else:
                runnable.append(job)
        if not runnable:
            return
        with self._lock:
            self._batches += 1
            self._batched_jobs += len(runnable)
            self._max_batch = max(self._max_batch, len(runnable))
            self._running_jobs += len(runnable)
        documents: list[Document] = []
        doc_jobs: dict[str, Job] = {}
        claim_jobs: dict[str, Job] = {}
        for job in runnable:
            job.state = RUNNING
            job.started_at = time.monotonic()
            job.emit(JobStarted(job_id=job.job_id, batch_id=batch_id,
                                batch_jobs=len(runnable)))
            for document in job.documents:
                documents.append(document)
                doc_jobs[document.doc_id] = job
                for claim in document.claims:
                    claim_jobs[claim.claim_id] = job
        _log.debug("batch_dispatched", extra={"fields": {
            "batch_id": batch_id, "jobs": len(runnable),
            "documents": len(documents),
        }})
        # One tracer per batch: roots are routed to their owning jobs
        # afterwards, so concurrent dispatchers never mix span forests.
        # The clock is time.monotonic — the same epoch as the Job
        # timestamps — so queue-wait bars line up with the work bars.
        tracer: Tracer = (
            Tracer(trace_id=f"batch-{batch_id}", clock=time.monotonic)
            if self.config.tracing else NULL_TRACER
        )
        if tracer.enabled:
            for job in runnable:
                tracer.record(
                    f"wait:{job.job_id}", "queue_wait",
                    job.submitted_at, job.started_at or job.submitted_at,
                    job_id=job.job_id, priority=job.priority,
                )
        try:
            checkpoint = verifier.ledger.checkpoint()
            run = verifier.verify_documents(
                documents,
                runnable[0].schedule,
                observer=_StreamingObserver(doc_jobs, claim_jobs),
                tracer=tracer,
            )
        except Exception as error:  # the whole batch is poisoned
            message = f"{type(error).__name__}: {error}"
            _log.error("batch_failed", extra={"fields": {
                "batch_id": batch_id, "jobs": len(runnable),
                "error": message,
            }})
            for job in runnable:
                self._finalize(job, CANCELLED if job.cancelled else FAILED,
                               error=message)
            return
        finally:
            with self._lock:
                self._running_jobs -= len(runnable)
            if tracer.enabled:
                self._file_spans(tracer, runnable, doc_jobs)
        for job in runnable:
            if job.cancelled:
                self._finalize(job, CANCELLED)
                continue
            job.run = VerificationRun(job.documents, {
                claim.claim_id: run.reports[claim.claim_id]
                for document in job.documents
                for claim in document.claims
            })
            totals = verifier.ledger.totals_for_tags(
                {f"doc:{document.doc_id}" for document in job.documents},
                since=checkpoint,
            )
            job.spend = {
                "cost_usd": round(totals.cost, 6),
                "llm_calls": totals.calls,
                "tokens": totals.total_tokens,
            }
            self._finalize(job, COMPLETED)

    @staticmethod
    def _file_spans(
        tracer: Tracer, runnable: list[Job], doc_jobs: dict[str, Job]
    ) -> None:
        """Route the batch tracer's root spans to their owning jobs.

        ``queue_wait`` roots carry a ``job_id`` attribute; ``document``
        roots carry ``doc_id``. Anything unroutable is dropped — spans
        are diagnostics, never load-bearing state. Document roots get
        the critical-path annotation here, once their subtree is final
        (the attributes are wall-time-derived, so timeless renderings
        drop them again — see ``WALL_TIME_ATTRIBUTES``).
        """
        jobs_by_id = {job.job_id: job for job in runnable}
        for span in tracer.drain_roots():
            if span.kind == "queue_wait":
                job = jobs_by_id.get(span.attributes.get("job_id"))
            else:
                job = doc_jobs.get(span.attributes.get("doc_id"))
                annotate_critical_path(span)
            if job is not None:
                job.spans.append(span)

    # -- completion ----------------------------------------------------------

    def _finalize(self, job: Job, state: str, error: str | None = None) -> None:
        with self._lock:
            if job.state in _TERMINAL_STATES:
                return
            job.state = state
            job.finished_at = time.monotonic()
            job.error = error
            remaining = self._inflight.get(job.client_id, 1) - 1
            if remaining > 0:
                self._inflight[job.client_id] = remaining
            else:
                self._inflight.pop(job.client_id, None)
            for claim_id in job.claim_ids():
                self._active_claim_ids.discard(claim_id)
            for document in job.documents:
                self._active_doc_ids.discard(document.doc_id)
            counter = {COMPLETED: "completed", FAILED: "failed",
                       CANCELLED: "cancelled"}[state]
            self._counts[counter] += 1
        latency = job.finished_at - job.submitted_at
        _log.log(
            logging.ERROR if state == FAILED else logging.INFO,
            "job_finished", extra={"fields": {
                "job_id": job.job_id, "state": state,
                "latency_seconds": round(latency, 6),
                **({"error": error} if error else {}),
            }},
        )
        if state == COMPLETED:
            self._histogram.record(latency)
            flagged = sum(
                1 for document in job.documents
                for claim in document.claims if claim.correct is False
            )
            # Forced: a terminal event must always close the stream,
            # even if a cancel() raced in after the state flipped to
            # COMPLETED (the cancel itself is then a no-op — see
            # :meth:`cancel`).
            job.emit(JobDone(
                job_id=job.job_id,
                claims=len(job.claim_ids()),
                flagged=flagged,
                spend=job.spend,
                latency_seconds=round(latency, 6),
            ), force=True)
        elif state == FAILED:
            job.emit(JobFailed(job_id=job.job_id, error=error or ""),
                     force=True)
        else:
            job.emit(JobCancelled(job_id=job.job_id), force=True)

    # -- introspection -------------------------------------------------------

    def _cache_stats(self) -> dict | None:
        """The response cache's counters; None while the cache is off or
        still empty."""
        if not self.cache:
            return None
        return _render_cache(self.cache)

    def stats(self) -> ServiceStats:
        with self._lock:
            jobs = dict(self._counts)
            batches = {
                "count": self._batches,
                "jobs": self._batched_jobs,
                "mean_size": (round(self._batched_jobs / self._batches, 2)
                              if self._batches else 0.0),
                "max_size": self._max_batch,
            }
            running = self._running_jobs
            draining = self._draining
        totals = self.ledger.totals()
        # Engine-wide plan-cache/strategy counters, with the result-cache
        # slot replaced by this service's own shared cache (the global
        # strategy counters still expose process-wide hit/miss tallies).
        sql = dict(engine_stats())
        sql["result_cache"] = (
            _render_cache(self.sql_cache)
            if self.sql_cache is not None else None
        )
        sql["executions"] = self.ledger.sql_executions
        sql["seconds"] = round(self.ledger.sql_seconds, 6)
        return ServiceStats(
            queue_depth=len(self._queue),
            running_jobs=running,
            draining=draining,
            jobs=jobs,
            batches=batches,
            cache=self._cache_stats(),
            sql=sql,
            ledger={
                "entries": len(self.ledger),
                "calls": totals.calls,
                "cost_usd": round(totals.cost, 6),
                "tokens": totals.total_tokens,
                "retries": self.ledger.retry_count,
                "retry_backoff_seconds": round(
                    self.ledger.retry_backoff_seconds, 6
                ),
            },
            latency=self._histogram.snapshot(),
        )
