"""Typed job-lifecycle events, serialisable to JSON lines.

Every accepted job exposes a stream of these events: claims accepted at
admission, stages starting, per-claim verdicts as they land, and exactly
one terminal event (done, failed, or cancelled). Callers consume them
through :meth:`~repro.service.service.JobHandle.events`; the HTTP front
end replays them as ``application/x-ndjson`` from
``GET /v1/jobs/<id>/events``.

Events are frozen dataclasses — facts about the run, not mutable state —
and each carries its ``kind`` in the serialised form so a stream can be
parsed without knowing the Python types.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import ClassVar


def _now() -> float:
    return time.time()


class JobEvent:
    """Mixin shared by all event dataclasses (not itself a dataclass)."""

    #: Wire name of the event, written as ``"event"`` in the JSON form.
    kind: ClassVar[str] = "event"
    #: True for the events that end a job's stream.
    terminal: ClassVar[bool] = False

    def to_dict(self) -> dict:
        # An instance's ``__dict__`` is exactly its dataclass fields (the
        # ClassVars live on the class): ``asdict`` minus its deep copy.
        payload = dict(vars(self))
        payload["event"] = self.kind
        return payload

    def to_json(self) -> str:
        """One JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class JobQueued(JobEvent):
    """The job passed admission control and entered the queue."""

    kind: ClassVar[str] = "job_queued"
    job_id: str
    priority: int = 0
    queue_depth: int = 0
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class ClaimAccepted(JobEvent):
    """One claim of the job was admitted for verification."""

    kind: ClassVar[str] = "claim_accepted"
    job_id: str
    claim_id: str = ""
    sentence: str = ""
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class JobStarted(JobEvent):
    """The job left the queue and its batch began executing."""

    kind: ClassVar[str] = "job_started"
    job_id: str
    batch_id: int = 0
    batch_jobs: int = 1          # jobs coalesced into the same batch
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class StageStarted(JobEvent):
    """A schedule stage began work on one of the job's documents."""

    kind: ClassVar[str] = "stage_started"
    job_id: str
    doc_id: str = ""
    method: str = ""
    tries: int = 1
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class ClaimVerdict(JobEvent):
    """One claim reached its final verdict (streamed as it lands)."""

    kind: ClassVar[str] = "claim_verdict"
    job_id: str
    claim_id: str = ""
    verdict: str = ""            # "correct" | "incorrect"
    query: str | None = None
    verified_by: str | None = None
    attempts: int = 0
    fallback: bool = False
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class JobDone(JobEvent):
    """Terminal: every claim has a verdict; summary of the job."""

    kind: ClassVar[str] = "job_done"
    terminal: ClassVar[bool] = True
    job_id: str
    claims: int = 0
    flagged: int = 0
    spend: dict | None = None    # {"cost_usd", "llm_calls", "tokens"}
    latency_seconds: float = 0.0
    ts: float = field(default_factory=_now)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if self.spend is not None:
            payload["spend"] = dict(self.spend)  # the one mutable field
        return payload


@dataclass(frozen=True)
class JobFailed(JobEvent):
    """Terminal: the job's batch raised; no verdicts are trustworthy."""

    kind: ClassVar[str] = "job_failed"
    terminal: ClassVar[bool] = True
    job_id: str
    error: str = ""
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class JobCancelled(JobEvent):
    """Terminal: the job was cancelled; its stream ends here."""

    kind: ClassVar[str] = "job_cancelled"
    terminal: ClassVar[bool] = True
    job_id: str
    ts: float = field(default_factory=_now)


@dataclass(frozen=True)
class WorkerLost(JobEvent):
    """Terminal: the worker process running the job died mid-flight.

    Emitted by the cluster router (never by a single-process service)
    for every non-terminal job routed to a crashed shard, so clients get
    a structured end-of-stream instead of a wedged connection. The job
    was *accepted* but its verdicts are unknown; resubmitting is safe —
    ids were released when the stream closed, and the shard's caches
    make the retry cheap.
    """

    kind: ClassVar[str] = "worker_lost"
    terminal: ClassVar[bool] = True
    job_id: str
    worker: int = -1             # shard index of the dead worker
    error: str = ""
    ts: float = field(default_factory=_now)
