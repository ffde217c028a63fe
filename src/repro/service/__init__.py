"""Embeddable verification service (queueing, dispatch, streaming).

The package turns the concurrent executor into a long-lived service:

* :class:`VerificationService` — bounded-queue admission control, one
  verifier run per job on long-lived per-dispatcher verifiers (one
  response cache and ledger for the whole service), streaming job
  events, cancellation, and drain-on-shutdown.
* :mod:`repro.service.http` — the asyncio HTTP front end
  (``python -m repro.service``) exposing submit / events / stats, the
  same HTTP code the cluster router serves through.

Importing this package never imports the HTTP layer; embedders that
just want ``VerificationService`` pay for nothing else.
"""

from .events import (
    ClaimAccepted,
    ClaimVerdict,
    JobCancelled,
    JobDone,
    JobEvent,
    JobFailed,
    JobQueued,
    JobStarted,
    StageStarted,
    WorkerLost,
)
from .queue import (
    REASON_CLIENT_LIMIT,
    REASON_CONFLICT,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    RETRYABLE_REASONS,
    AdmissionError,
    BoundedJobQueue,
    RejectionReason,
    retry_after_seconds,
)
from .signals import install_drain_handlers, restore_handlers
from .service import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobHandle,
    ServiceConfig,
    VerificationService,
    clone_document,
)
from .stats import LatencyHistogram, ServiceStats

__all__ = [
    "AdmissionError",
    "BoundedJobQueue",
    "CANCELLED",
    "COMPLETED",
    "ClaimAccepted",
    "ClaimVerdict",
    "FAILED",
    "Job",
    "JobCancelled",
    "JobDone",
    "JobEvent",
    "JobFailed",
    "JobHandle",
    "JobQueued",
    "JobStarted",
    "LatencyHistogram",
    "QUEUED",
    "REASON_CLIENT_LIMIT",
    "REASON_CONFLICT",
    "REASON_DRAINING",
    "REASON_QUEUE_FULL",
    "RETRYABLE_REASONS",
    "RUNNING",
    "RejectionReason",
    "ServiceConfig",
    "ServiceStats",
    "StageStarted",
    "VerificationService",
    "WorkerLost",
    "clone_document",
    "install_drain_handlers",
    "restore_handlers",
    "retry_after_seconds",
]
