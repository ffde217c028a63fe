"""The load generator: HTTP client, closed loop and open loop.

One generator process, at most ``nproc`` threads and ``nproc`` open
connections (asserted by :class:`Budget`). A job is ``POST /v1/verify``
followed by ``GET /v1/jobs/<id>/events?wait=1`` — on the same keep-alive
connection in the closed loop, on the sender's and the collector's in
the open loop; what comes back is folded into a :class:`JobRecord` as
the lines arrive, so the record carries both the client's clock (send,
first verdict seen, terminal line seen) and the server's (the events'
own ``ts`` fields).

Clocks: the client stamps ``time.time()`` because the events' ``ts``
are ``time.time()`` on the same host — differences across the two are
what ``service.events.tail_ms`` and the open loop's latency are made of.
"""

from __future__ import annotations

import collections
import heapq
import http.client
import json
import os
import queue
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .workloads import PlannedJob

TERMINAL_EVENTS = frozenset(
    {"job_done", "job_failed", "job_cancelled", "worker_lost"}
)
#: Statuses whose ``Retry-After`` the generator honours, once per job.
RETRYABLE_STATUS = frozenset({429, 503})

#: What can go wrong on the wire without being the bench's own bug.
WIRE_ERRORS = (OSError, http.client.HTTPException, ValueError)

NPROC = os.cpu_count() or 1


class Budget:
    """Counts the generator's threads and connections against ``nproc``."""

    def __init__(self, limit: int = NPROC) -> None:
        self.limit = max(2, limit)    # a sender and a collector at least
        self._lock = threading.Lock()
        self._held = {"threads": 0, "connections": 0}
        self.peak = {"threads": 0, "connections": 0}

    def acquire(self, what: str) -> None:
        with self._lock:
            self._held[what] += 1
            self.peak[what] = max(self.peak[what], self._held[what])
            if self._held[what] > self.limit:
                raise AssertionError(
                    f"generator holds {self._held[what]} {what}, "
                    f"over its budget of {self.limit}"
                )

    def release(self, what: str) -> None:
        with self._lock:
            self._held[what] -= 1


@dataclass
class JobRecord:
    """Everything observed about one job, client and server side."""

    plan: PlannedJob
    due: float | None = None           # wall clock; open loop only
    sent: float = 0.0                  # just before the first POST
    accepted: float = 0.0              # last POST reply fully read
    follow_started: float = 0.0        # just before the events GET
    first_verdict_seen: float = 0.0    # client clock
    ended: float = 0.0                 # terminal line read, client clock
    status: int = 0                    # last POST status
    retried: bool = False
    job_id: str = ""
    claims_promised: int = 0           # "claims" of the 202 reply
    #: Terminal event kind, or "refused" / "timeout" / "error:<type>".
    outcome: str = ""
    error: str = ""
    # -- server clock, from the events' ts fields --
    ts_queued: float = 0.0
    ts_started: float = 0.0
    ts_first_verdict: float = 0.0
    ts_terminal: float = 0.0
    batch_jobs: int = 0
    events: int = 0
    event_bytes: int = 0
    verdicts: dict[str, str] = field(default_factory=dict)
    queries: list[str] = field(default_factory=list)
    sentences: list[str] = field(default_factory=list)
    spend: dict = field(default_factory=dict)
    last_event: dict = field(default_factory=dict)   # the terminal one

    @property
    def done(self) -> bool:
        return self.outcome == "job_done"

    @property
    def origin(self) -> float:
        """Where latency counts from: the due time, else the send."""
        return self.due if self.due is not None else self.sent

    @property
    def followed_live(self) -> bool:
        """The stream was already open when the job finished."""
        return 0.0 < self.follow_started < self.ts_terminal

    def fail(self, outcome: str, error: str = "") -> None:
        self.outcome, self.error, self.ended = outcome, error, time.time()

    def posted(self, status: int, retry_after: str | None,
               body: bytes) -> float | None:
        """Fold the reply to this job's ``POST /v1/verify`` in.

        Returns None when the job is settled — accepted (``job_id``
        set) or refused for good — and otherwise the seconds the server
        asked the caller to wait before the job's one retry.
        """
        reply = json.loads(body or b"{}")
        self.status = status
        self.accepted = time.time()
        if status == 202:
            self.job_id = reply["job_id"]
            self.claims_promised = int(reply.get("claims", 0))
            return None
        if status in RETRYABLE_STATUS and retry_after and not self.retried:
            self.retried = True
            return float(retry_after)
        self.fail("refused", json.dumps(reply.get("rejected") or reply))
        return None

    def observe(self, line: bytes, now: float) -> bool:
        """Fold one ndjson line in; True once it was the terminal one."""
        event = json.loads(line)
        kind = event.get("event", "")
        self.events += 1
        self.event_bytes += len(line)
        stamp = float(event.get("ts", 0.0))
        if kind == "job_queued":
            self.ts_queued = stamp
        elif kind == "claim_accepted":
            self.sentences.append(event.get("sentence", ""))
        elif kind == "job_started":
            self.ts_started = stamp
            self.batch_jobs = int(event.get("batch_jobs", 0))
        elif kind == "claim_verdict":
            if not self.verdicts:
                self.ts_first_verdict = stamp
                self.first_verdict_seen = now
            # Strip the request tag ("r00017/agg00_538/c0").
            claim_id = str(event.get("claim_id", "")).split("/", 1)[-1]
            self.verdicts[claim_id] = event.get("verdict", "")
            if event.get("query"):
                self.queries.append(event["query"])
        elif kind in TERMINAL_EVENTS:
            self.ts_terminal = stamp
            self.outcome = kind
            self.ended = now
            self.spend = event.get("spend") or {}
            self.error = event.get("error", "")
            self.last_event = event
            return True
        return False


class Connection:
    """One keep-alive HTTP/1.1 connection, counted against the budget."""

    def __init__(self, port: int, budget: Budget,
                 host: str = "127.0.0.1", timeout: float = 30.0) -> None:
        self._budget = budget
        budget.acquire("connections")
        self._http = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._http.close()
        self._budget.release("connections")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def abandon(self, record: JobRecord, error: Exception) -> None:
        """File a wire error under ``record`` and drop the socket it
        left mid-response; the next request reopens it (the same budget
        slot, so never two sockets at once)."""
        record.fail(f"error:{type(error).__name__}", str(error))
        self._http.close()

    def get_json(self, path: str) -> tuple[int, dict]:
        self._http.request("GET", path)
        response = self._http.getresponse()
        body = response.read()
        return response.status, (json.loads(body) if body else {})

    def post(self, record: JobRecord) -> float | None:
        """One ``POST /v1/verify``, reply awaited; see ``posted``."""
        self._http.request("POST", "/v1/verify",
                           json.dumps(record.plan.payload),
                           {"Content-Type": "application/json"})
        response = self._http.getresponse()
        return record.posted(response.status,
                             response.getheader("Retry-After"),
                             response.read())

    def follow(self, record: JobRecord, wait_seconds: float = 30.0) -> None:
        """Stream the job's events until the terminal line."""
        record.follow_started = time.time()
        self._http.request(
            "GET", f"/v1/jobs/{record.job_id}/events"
                   f"?wait=1&timeout={wait_seconds:g}",
        )
        response = self._http.getresponse()
        if response.status != 200:
            response.read()
            record.fail(f"error:events-{response.status}")
            return
        terminal = False
        while True:
            line = response.readline()
            if not line:
                break
            if not terminal:
                terminal = record.observe(line, time.time())
        if not terminal:
            record.fail("timeout")

    def run_job(self, record: JobRecord) -> JobRecord:
        """Submit (one retry honoured) and follow; errors land in the
        record, never past it."""
        try:
            record.sent = time.time()
            wait = self.post(record)
            if wait is not None:
                time.sleep(wait)
                self.post(record)
            if record.job_id:
                self.follow(record)
        except WIRE_ERRORS as error:
            self.abandon(record, error)
        return record


class Pipeline:
    """The open loop's sender: POSTs written when due, replies read as
    they come, on one keep-alive connection (HTTP/1.1 pipelining).

    A sender that waits for each reply before its next send runs late
    whenever a reply is slow, and lateness that follows the server's
    speed is coordinated omission. On the seed code one POST reply in
    fifty takes 40 ms (headers and body are written separately and the
    body waits for a delayed ACK), which made the next job late whenever
    it fell due inside that wait. Independent users do not wait for
    each other's replies; with one connection to spend, this is how the
    generator does the same.
    """

    def __init__(self, port: int, budget: Budget,
                 host: str = "127.0.0.1", timeout: float = 30.0) -> None:
        self._budget = budget
        budget.acquire("connections")
        self._address = (host, port)
        self._timeout = timeout
        self._socket: socket.socket | None = None
        self._buffer = b""
        #: Sent, reply not yet read — replies come back in this order.
        self.inflight: collections.deque[JobRecord] = collections.deque()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self._drop_socket()
        self._budget.release("connections")

    def _drop_socket(self) -> None:
        if self._socket is not None:
            self._socket.close()
        self._socket, self._buffer = None, b""

    def abandon(self, error: Exception) -> None:
        """File a wire error under every job still awaiting its reply
        and drop the socket; the next send reopens it (the same budget
        slot, so never two sockets at once)."""
        while self.inflight:
            self.inflight.popleft().fail(
                f"error:{type(error).__name__}", str(error))
        self._drop_socket()

    def send(self, record: JobRecord) -> None:
        """Write ``record``'s POST; its reply is read by ``replies``."""
        self.inflight.append(record)      # first: abandon() must find it
        if self._socket is None:
            self._socket = socket.create_connection(
                self._address, self._timeout)
            self._socket.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        body = json.dumps(record.plan.payload).encode()
        self._socket.sendall(
            b"POST /v1/verify HTTP/1.1\r\n"
            b"Host: %s:%d\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n"
            % (self._address[0].encode(), self._address[1], len(body))
            + body)

    def replies(self, wait: float) -> Iterator[tuple[JobRecord, float | None]]:
        """Wait up to ``wait`` seconds for reply bytes, then yield every
        job whose reply is complete with what ``JobRecord.posted`` said
        of it. Never blocks on a reply that has only half arrived."""
        if self._socket is None:
            time.sleep(max(0.0, wait))
            return
        readable, _, _ = select.select([self._socket], [], [], max(0.0, wait))
        if not readable:
            if (self.inflight and
                    time.time() - self.inflight[0].sent > self._timeout):
                raise TimeoutError(f"no reply to a POST in {self._timeout:g} s")
            return
        chunk = self._socket.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the pipelined connection")
        self._buffer += chunk
        while self.inflight:
            head, separator, rest = self._buffer.partition(b"\r\n\r\n")
            if not separator:
                return
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            headers = {
                name.strip().lower(): value.strip() for name, _, value
                in (line.partition(":") for line in header_lines)
            }
            length = int(headers.get("content-length", "0"))
            if len(rest) < length:
                return
            self._buffer = rest[length:]
            record = self.inflight.popleft()
            yield record, record.posted(
                int(status_line.split()[1]), headers.get("retry-after"),
                rest[:length])


def _raise_first(failures: list[BaseException]) -> None:
    if failures:
        raise failures[0]


def closed_loop(port: int, jobs: Sequence[PlannedJob], clients: int,
                budget: Budget) -> list[JobRecord]:
    """``clients`` callers, each sending its next job when the last ended.

    Jobs are handed out in plan order from one shared cursor. The
    calling thread is client 0, so ``clients`` threads exist in all.
    """
    records = [JobRecord(plan=job) for job in jobs]
    cursor = iter(records)
    cursor_lock = threading.Lock()
    failures: list[BaseException] = []

    def client() -> None:
        budget.acquire("threads")
        try:
            with Connection(port, budget) as connection:
                # One client's failure (or Ctrl-C in the caller's) ends
                # the others after the job they are on.
                while not failures:
                    with cursor_lock:
                        record = next(cursor, None)
                    if record is None:
                        return
                    connection.run_job(record)
        except BaseException as error:  # re-raised on the caller
            failures.append(error)
        finally:
            budget.release("threads")

    others = [threading.Thread(target=client, name=f"bench-client-{k}")
              for k in range(1, clients)]
    for thread in others:
        thread.start()
    client()
    for thread in others:
        thread.join()
    _raise_first(failures)
    return records


def open_loop(port: int, jobs: Sequence[PlannedJob], budget: Budget,
              lead_seconds: float = 0.2) -> list[JobRecord]:
    """Send on schedule whatever the server does; collect separately.

    The calling thread is the sender: it writes each job's POST when it
    falls due and reads the replies in between (:class:`Pipeline`). One
    collector thread follows the accepted jobs' streams in submission
    order and takes first-verdict and terminal times from the events'
    ``ts``, so a collector that lags behind never inflates a latency.
    Latency counts from the *due* time.
    """
    records = [JobRecord(plan=job) for job in jobs]
    handoff: queue.Queue[JobRecord | None] = queue.Queue()
    failures: list[BaseException] = []

    def collector() -> None:
        budget.acquire("threads")
        try:
            with Connection(port, budget) as connection:
                while (record := handoff.get()) is not None:
                    try:
                        connection.follow(record)
                    except WIRE_ERRORS as error:
                        connection.abandon(record, error)
        except BaseException as error:  # re-raised on the caller
            failures.append(error)
        finally:
            budget.release("threads")

    thread = threading.Thread(target=collector, name="bench-collector")
    budget.acquire("threads")
    thread.start()
    try:
        with Pipeline(port, budget) as pipeline:
            epoch = time.time() + lead_seconds
            # (send-at, plan index, record): a job told to retry
            # re-enters at its Retry-After.
            pending = []
            for record in records:
                record.due = epoch + record.plan.due
                pending.append((record.due, record.plan.index, record))
            heapq.heapify(pending)
            while pending or pipeline.inflight:
                try:
                    if pending and pending[0][0] <= time.time():
                        _send_at, _index, record = heapq.heappop(pending)
                        if not record.retried:
                            record.sent = time.time()
                        pipeline.send(record)
                        continue
                    # select() may return late by 0.1 % of its timeout
                    # (the kernel's slack for long waits): approach the
                    # due time in shrinking steps, not in one long wait.
                    wait = pending[0][0] - time.time() if pending else 1.0
                    for record, retry_in in pipeline.replies(
                            0.9 * wait if wait > 0.001 else wait):
                        if retry_in is not None:
                            heapq.heappush(pending, (
                                time.time() + retry_in, record.plan.index,
                                record))
                        elif record.job_id:
                            handoff.put(record)
                except WIRE_ERRORS as error:
                    pipeline.abandon(error)
    finally:
        handoff.put(None)
        thread.join()
        budget.release("threads")
    _raise_first(failures)
    return records
