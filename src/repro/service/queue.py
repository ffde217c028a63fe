"""Bounded priority queue with admission control.

The service's front door is a queue that *refuses* work it cannot hold:
a full queue rejects the submission immediately with a structured
:class:`RejectionReason` instead of blocking the client or growing
without bound. Rejection is part of the API — callers (and the HTTP
layer's 429 responses) are expected to back off and resubmit.

Priorities are integers, lower is sooner; entries of equal priority
leave in FIFO order (a monotone sequence number breaks ties, so the heap
never compares the queued items themselves).
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from dataclasses import dataclass

#: Admission-rejection codes (the machine-readable half of the reason).
REASON_QUEUE_FULL = "queue_full"
REASON_CLIENT_LIMIT = "client_limit"
REASON_DRAINING = "draining"
REASON_CONFLICT = "conflict"

#: The rejection codes whose HTTP responses should carry a Retry-After
#: header: backlog (queue_full), fairness (client_limit), and shutdown
#: (draining) all clear with time; a ``conflict`` does not.
RETRYABLE_REASONS = frozenset(
    {REASON_QUEUE_FULL, REASON_CLIENT_LIMIT, REASON_DRAINING}
)


def retry_after_seconds(
    queue_depth: int,
    per_job_seconds: float = 0.25,
    floor: int = 1,
    ceiling: int = 60,
) -> int:
    """A Retry-After hint (whole seconds) derived from queue depth.

    The estimate is deliberately coarse — backlog times one nominal
    per-job drain cost, clamped to ``[floor, ceiling]`` — because its
    only job is to spread retries out proportionally to load. Both the
    single-process HTTP front end and the cluster router derive their
    429/503 ``Retry-After`` headers from it.
    """
    estimate = math.ceil((max(0, queue_depth) + 1) * per_job_seconds)
    return int(min(ceiling, max(floor, estimate)))


@dataclass(frozen=True)
class RejectionReason:
    """Why a submission was refused: a stable code plus a human message."""

    code: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}


class AdmissionError(RuntimeError):
    """Raised by ``submit``/``offer`` when admission control says no."""

    def __init__(self, reason: RejectionReason) -> None:
        super().__init__(f"{reason.code}: {reason.message}")
        self.reason = reason


class BoundedJobQueue:
    """A depth-bounded priority queue (thread-safe, non-blocking offers)."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self._heap: list[tuple[int, int, object]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._closed = False

    def offer(self, item: object, priority: int = 0) -> None:
        """Enqueue ``item`` or raise :class:`AdmissionError` when full."""
        with self._cond:
            if len(self._heap) >= self.max_depth:
                raise AdmissionError(RejectionReason(
                    REASON_QUEUE_FULL,
                    f"queue is at its depth limit ({self.max_depth}); "
                    "retry with backoff",
                ))
            heapq.heappush(self._heap, (priority, next(self._seq), item))
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> object | None:
        """Dequeue the best item, waiting up to ``timeout`` seconds.

        Returns None on timeout (``timeout=0`` polls without waiting;
        ``timeout=None`` waits indefinitely) and once the queue is
        closed and empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not self._heap:
                            return None
            return heapq.heappop(self._heap)[2]

    def close(self) -> None:
        """Wake every blocked :meth:`pop`; an empty closed queue returns
        None from ``pop`` at once. Items still queued stay poppable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def remove(self, item: object) -> bool:
        """Remove a specific queued item (identity match); False if absent.

        Used for cancellation: a job still in the queue is simply pulled
        out, never reaching a dispatcher.
        """
        with self._cond:
            for index, entry in enumerate(self._heap):
                if entry[2] is item:
                    self._heap[index] = self._heap[-1]
                    self._heap.pop()
                    heapq.heapify(self._heap)
                    return True
            return False

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)
