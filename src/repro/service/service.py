"""The embeddable verification service.

``VerificationService`` turns the PR 1 engine (:class:`ParallelVerifier`
with its shared response cache, retry layer, and thread-safe ledger)
into something that can sit under concurrent traffic:

* **Admission control** — a bounded priority queue rejects-with-reason
  when full, per-client in-flight caps stop one caller from starving the
  rest, and claim-id conflicts with in-flight jobs are refused rather
  than silently corrupting shared state.
* **One run per job** — one dispatcher thread pops the next job and
  verifies it with one ``verify_documents`` call, so a job that fails
  fails alone. The response cache, the ledger and one claims pool of
  ``workers`` threads are shared across requests instead of re-paid per
  call. An idle service answers a job at once.
* **Overlap where the model waits** — a job whose schedule has a
  blocking stage (:attr:`~repro.llm.base.LLMClient.blocking`) runs on
  its own ``cedar-job`` thread beside up to ``workers - 1`` others, and
  every one of its blocking model calls runs on the shared claims pool,
  so at most ``workers`` calls are in flight however many jobs run. A
  job whose clients never block runs on the dispatcher thread, one at a
  time: under the GIL, more runners would only add hand-offs.
* **Streaming** — every job exposes an event iterator (accepted → stage
  started → verdict → done) fed by the executor's
  :class:`~repro.core.pipeline.VerificationObserver` hooks, so callers
  see per-claim verdicts while the job is still running.
* **Cancellation and drain** — a queued job cancels instantly; a running
  job stops emitting events and its remaining documents are skipped.
  ``shutdown(drain=True)`` refuses new work, flushes everything already
  accepted, and joins every thread the service started.

A job's spend is what its own ledger capture recorded. Submitted
documents must carry doc ids and claim ids that are unique among
in-flight jobs, because verdicts are written onto the claims
themselves; use :func:`clone_document` to derive a uniquely-tagged copy
when submitting the same document many times.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    #: Read by nothing: each job is one verifier run. Kept only because
    #: ``bench/serve.py`` still passes them; ROADMAP 5(d) removes them.
    max_batch_jobs: int = 8
    batch_window: float = 0.0
    #: Model calls in flight across the whole service: the size of the
    #: one claims pool every blocking call runs on, and so also the
    #: most jobs over blocking clients that run at once.
    workers: int = 16
    cache_size: int = 1024          # shared response cache; 0 disables
    sql_cache_size: int = 2048      # shared query-result cache; 0 disables
    retry: RetryPolicy | None = None
    ledger: CostLedger | None = None
    #: Per-job span trees (queue wait + the document waterfall), served
    #: by ``GET /jobs/<id>/trace``. Tracing never changes verdicts or
    #: spend, but on hot jobs it is about a quarter of the process CPU:
    #: 1.80 / 1.93 ms per job with it against 1.32 / 1.51 ms without
    #: (two in-process runs each, 2 vCPUs).
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
        #: span per document) once its run completes.
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
    """Feed one job's verifier progress into its event stream.

    Called from verifier worker threads; Job.emit is the synchronisation
    point. Once the job is cancelled its remaining documents are skipped
    via ``should_verify``.
    """

    def __init__(self, job: Job) -> None:
        self._job = job

    def should_verify(self, document: Document) -> bool:
        return not self._job.cancelled

    def stage_started(self, document: Document, entry: ScheduleEntry) -> None:
        self._job.emit(StageStarted(
            job_id=self._job.job_id,
            doc_id=document.doc_id,
            method=entry.method.name,
            tries=entry.tries,
        ))

    def claim_resolved(self, claim: Claim, report: ClaimReport) -> None:
        record = claim_record(claim, report)
        self._job.emit(ClaimVerdict(
            job_id=self._job.job_id,
            claim_id=claim.claim_id,
            verdict=record["verdict"],
            query=record["query"],
            verified_by=record["verified_by"],
            attempts=record["attempts"],
            fallback=record["fallback"],
        ))


class VerificationService:
    """Accepts, executes, and streams verification jobs."""

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
        self._dispatcher: threading.Thread | None = None
        #: Live ``cedar-job`` threads, one per running blocking job; a
        #: dispatcher pops a job only while it holds one of ``workers``
        #: slots, and a job thread gives its slot back when it ends.
        self._job_threads: set[threading.Thread] = set()
        self._job_slots = threading.Semaphore(self.config.workers)
        #: The claims pool lent to every verifier that runs a blocking
        #: job; built on the first such job, joined by :meth:`shutdown`.
        self._claims_pool: ThreadPoolExecutor | None = None
        self._stop = threading.Event()
        self._draining = False
        self._started = False
        self._counts = {"submitted": 0, "completed": 0, "failed": 0,
                        "cancelled": 0, "rejected": 0}
        self._running_jobs = 0
        self._histogram = LatencyHistogram()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "VerificationService":
        """Launch the dispatcher thread (idempotent).

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
                "workers": self.config.workers,
            }})
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="cedar-dispatch",
                daemon=True,
            )
            self._dispatcher.start()
        return self

    def begin_drain(self) -> None:
        """Flip to draining without blocking: new submissions are
        refused (``/readyz`` goes 503) while the service keeps flushing
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
        jobs and only lets running jobs finish. Either way the
        dispatcher, the job threads and the claims pool are joined
        (``timeout`` bounds each thread's join). On a service that was
        never started, draining runs the queued jobs one by one on the
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
            self._dispatch_loop(inline=True)
        self._stop.set()
        # No offer can follow the draining flag, so closing now lets the
        # dispatcher flush what is queued and then return from pop().
        self._queue.close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        # The dispatcher starts no job thread once it has returned.
        with self._lock:
            job_threads = list(self._job_threads)
        for thread in job_threads:
            thread.join(timeout)
        if self._claims_pool is not None:
            self._claims_pool.shutdown(wait=True)
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
        """Jobs accepted but not yet picked up by the dispatcher."""
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
            # Verdicts are written onto the Claim objects, so two jobs
            # in flight over one claim would overwrite each other's
            # correct/query; a doc id stands for its document's claims.
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
        emitting events and is finalised when its run completes. A job
        whose state is already terminal refuses the cancel (checked
        under the service lock, the same lock :meth:`_finalize` sets the
        state under). A cancel that lands in the instant a job is
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

    def _dispatch_loop(self, inline: bool = False) -> None:
        """Pop and run jobs until the queue is closed and empty (empty,
        when ``inline``).

        A job whose clients never block runs right here, on a verifier
        that lives as long as the loop. A job that can wait on the model
        runs on a ``cedar-job`` thread with a verifier of its own, which
        borrows the service's claims pool: verifiers hold no per-database
        state, so jobs share nothing mutable but the thread-safe caches,
        ledger and pool. The loop takes one of ``workers`` slots before
        each pop, so at most ``workers`` such jobs run and the rest wait
        in the priority queue, not in a thread pool's backlog. The
        service thus runs 1 + at most ``workers`` job threads + the
        pool's ``workers`` claim threads, under any load. ``inline``
        (a never-started service's drain) runs every job here, one by
        one.
        """
        verifier = self._verifier()
        try:
            while True:
                self._job_slots.acquire()
                job = self._queue.pop(0 if inline else None)
                if job is None:  # drained, or closed and empty
                    self._job_slots.release()
                    return
                blocks = self._blocks(job)
                if blocks and not inline:
                    self._start_job_thread(job)  # it returns the slot
                    continue
                self._job_slots.release()
                self._run_job(
                    job, self._verifier(self._pool()) if blocks else verifier
                )
        finally:
            verifier.close()

    def _blocks(self, job: Job) -> bool:
        """Whether a job's run can wait on something besides this
        process's CPU: a stage's client blocks, or the retry layer's
        backoff may sleep (the executor tests the wrapped clients)."""
        return self.config.retry is not None or any(
            entry.method.client.blocking for entry in job.schedule
        )

    def _verifier(
        self, claims_pool: ThreadPoolExecutor | None = None,
    ) -> ParallelVerifier:
        return ParallelVerifier(config=VerifierConfig(
            workers=self.config.workers,
            claims_pool=claims_pool,
            cache=self.cache,
            retry=self.config.retry,
            ledger=self.ledger,
            sql_cache=self.sql_cache,
            sql_cache_size=self.config.sql_cache_size,
        ))

    def _pool(self) -> ThreadPoolExecutor:
        """The claims pool, built on first use (always on the dispatching
        thread, so never twice)."""
        if self._claims_pool is None:
            self._claims_pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="cedar-claim",
            )
        return self._claims_pool

    def _start_job_thread(self, job: Job) -> None:
        verifier = self._verifier(self._pool())

        def run() -> None:
            try:
                self._run_job(job, verifier)
            finally:
                with self._lock:
                    self._job_threads.discard(thread)
                self._job_slots.release()

        thread = threading.Thread(target=run, name=f"cedar-{job.job_id}",
                                  daemon=True)
        with self._lock:
            self._job_threads.add(thread)
        thread.start()

    def _run_job(self, job: Job, verifier: ParallelVerifier) -> None:
        """One job, one ``verify_documents`` call: its own run, tracer,
        observer and ledger capture, so a failure stays in this job."""
        if job.cancelled:
            self._finalize(job, CANCELLED)
            return
        with self._lock:
            self._running_jobs += 1
        job.state = RUNNING
        job.started_at = time.monotonic()
        job.emit(JobStarted(job_id=job.job_id))
        # The trace id is the job id, so a log line's trace_id names the
        # /v1/jobs/<id>/trace to open. The clock is time.monotonic — the
        # same epoch as the Job timestamps — so the queue-wait bar lines
        # up with the work bars.
        tracer: Tracer = (
            Tracer(trace_id=job.job_id, clock=time.monotonic)
            if self.config.tracing else NULL_TRACER
        )
        if tracer.enabled:
            tracer.record(
                f"wait:{job.job_id}", "queue_wait",
                job.submitted_at, job.started_at,
                job_id=job.job_id, priority=job.priority,
            )
        error = None
        with self.ledger.capture() as spent:
            try:
                job.run = verifier.verify_documents(
                    job.documents,
                    job.schedule,
                    observer=_StreamingObserver(job),
                    tracer=tracer,
                )
            except Exception as failure:
                error = f"{type(failure).__name__}: {failure}"
        # Every call the job made reaches the service ledger, failed or
        # not, so the service's totals stay the sum of its jobs' calls.
        self.ledger.absorb(spent)
        with self._lock:
            self._running_jobs -= 1
        if tracer.enabled:
            self._file_spans(tracer, job)
        if job.cancelled:
            self._finalize(job, CANCELLED, error=error)
            return
        if error is not None:
            self._finalize(job, FAILED, error=error)
            return
        totals = spent.totals()
        job.spend = {
            "cost_usd": round(totals.cost, 6),
            "llm_calls": totals.calls,
            "tokens": totals.total_tokens,
        }
        self._finalize(job, COMPLETED)

    @staticmethod
    def _file_spans(tracer: Tracer, job: Job) -> None:
        """File the job tracer's root spans (its ``queue_wait`` and one
        ``document`` root per document) under the job.

        Document roots get the critical-path annotation here, once their
        subtree is final (the attributes are wall-time-derived, so
        timeless renderings drop them again — see
        ``WALL_TIME_ATTRIBUTES``).
        """
        for span in tracer.drain_roots():
            if span.kind != "queue_wait":
                annotate_critical_path(span)
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
            cache=self._cache_stats(),
            sql=sql,
            ledger={
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
