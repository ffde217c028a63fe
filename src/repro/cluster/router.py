"""The cluster front end: consistent-hash routing on one event loop.

``ClusterRouter`` is the piece clients talk to. It is a single asyncio
event loop doing four jobs:

* **Routing** — every submission's database content fingerprint is
  hashed onto the :class:`~repro.cluster.ring.HashRing`, so all traffic
  against the same data lands on the same shard and reuses its warm
  caches. The router computes fingerprints from its own copy of the
  dataset builders — the same builders the workers verify against.
* **Admission** — rejections happen *here*, before any bytes cross a
  process boundary: ``draining`` once a drain began, ``client_limit``
  against per-client in-flight counts aggregated across all shards, and
  ``queue_full`` against the target shard's open-job count. Every
  retryable rejection answers 429/503 with a queue-depth-derived
  ``Retry-After``, exactly like the single-process front end.
* **Event fan-out** — the router subscribes *once* per job to its
  worker and buffers the events; any number of HTTP clients can replay
  or follow the stream (``?wait=1``) as ndjson without touching the
  worker again. Thousands of idle streams are just thousands of
  awaiting coroutines.
* **Failure conversion** — when a worker connection drops, every open
  job on that shard immediately gets a structured ``worker_lost``
  terminal event (streams end cleanly, ids are released) while the
  supervisor respawns the slot; the ring maps the dead shard's keys to
  the next live shard in the interim and snaps back on respawn.

HTTP itself is the service's: :class:`~repro.service.http.HttpServer`
parses the requests and writes the replies, and the router is one of
the two backends whose route coroutines it awaits. This module parses
and writes no HTTP.

Observability (docs/observability.md): every accepted job gets a router
root span (admission → routing decision → worker RPC) whose trace
context rides the submit frame; ``GET /v1/jobs/<id>/trace`` stitches
the worker's span tree back under that root into one Chrome trace.
``GET /v1/metrics`` renders the ``/v1/stats`` body the router gathers
with its ``stats`` broadcast, and ``GET /v1/debug/logs?n=`` tails the
router's structured-log ring buffer. Router spans are built by hand
from recorded timestamps — never through a shared ``Tracer``, whose
thread-local span stack would cross-contaminate between interleaved
coroutines on the one event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable

from repro.obs.export import to_chrome_trace
from repro.obs.logs import LogRing, attach, detach
from repro.obs.tracer import (
    Span,
    annotate_critical_path,
    shift_times,
    span_from_dict,
    spans_from_dicts,
)
from repro.service import ServiceConfig, WorkerLost, retry_after_seconds
from repro.service.http import HttpServer, submission_error
from repro.service.queue import (
    REASON_CLIENT_LIMIT,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
)

from .protocol import make_trace_context
from .ring import DEFAULT_REPLICAS, HashRing
from .supervisor import WorkerGone, WorkerSupervisor
from .worker import dataset_builders

_log = logging.getLogger(__name__)

#: Event kinds that end a job's stream.
TERMINAL_KINDS = frozenset(
    {"job_done", "job_failed", "job_cancelled", "worker_lost"}
)

#: Rejection code for a shard that died between admission and ack.
REASON_WORKER_LOST = "worker_lost"

#: Seconds between the router's readiness probes of every shard.
HEALTH_INTERVAL = 1.0

_REJECTION_STATUS = {
    REASON_QUEUE_FULL: 429,
    REASON_CLIENT_LIMIT: 429,
    REASON_DRAINING: 503,
    REASON_WORKER_LOST: 503,
}


@dataclass
class ClusterConfig:
    """Knobs for the router and the worker fleet it spawns."""

    workers: int = 2                 # shard count
    seed: int = 0
    profile: str = "default"         # dataset profile (see worker.py)
    per_client_limit: int = 8        # open jobs per client, cluster-wide
    max_shard_inflight: int = 64     # open jobs per shard (router-side)
    replicas: int = DEFAULT_REPLICAS
    shard_threads: int = ServiceConfig.workers  # calls in flight per shard
    cache_db: str | None = None      # shared persistent L2 (optional)
    latency_scale: float = 0.0       # simulated model latency (bench)
    spawn_timeout: float = 60.0
    respawn: bool = True
    #: Distributed tracing: router job roots + trace contexts on the
    #: wire + worker span trees. Off turns both the router spans *and*
    #: the workers' service tracing off (the bench's untraced arm).
    tracing: bool = True
    #: Structured ndjson log file for the router; each worker appends
    #: to ``{log_file}.w{id}`` so processes never interleave lines.
    log_file: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.per_client_limit < 1:
            raise ValueError("per_client_limit must be at least 1")
        if self.max_shard_inflight < 1:
            raise ValueError("max_shard_inflight must be at least 1")


@dataclass
class JobRecord:
    """The router's view of one accepted job and its buffered events."""

    job_id: str                      # router-scoped id clients see
    worker_id: int
    worker_job_id: str               # the shard's local id
    client_id: str
    fingerprint: str
    #: The stream so far: the worker's ndjson lines, as received.
    events: list[str] = field(default_factory=list)
    last: str = ""                   # kind of the newest event
    subscribers: set[asyncio.Queue] = field(default_factory=set)
    submitted_at: float = field(default_factory=time.monotonic)
    #: Distributed-trace state (None with tracing off): the router's
    #: job root span — admission/route/rpc children — kept open until
    #: the terminal event, and the trace id the worker was handed.
    root: Span | None = None
    trace_id: str | None = None

    @property
    def terminal(self) -> bool:
        return self.last in TERMINAL_KINDS


class RoutingTable:
    """Dataset-document routing keys (database content fingerprints)."""

    def __init__(self, profile: str) -> None:
        self._builders = dataset_builders(profile)
        self._fingerprints: dict[str, list[str]] = {}
        self._lock = asyncio.Lock()

    @property
    def datasets(self) -> list[str]:
        return sorted(self._builders)

    async def fingerprints(self, dataset: str) -> list[str]:
        """Per-document routing keys, built once per dataset off-loop."""
        cached = self._fingerprints.get(dataset)
        if cached is not None:
            return cached
        async with self._lock:
            cached = self._fingerprints.get(dataset)
            if cached is not None:
                return cached
            builder = self._builders[dataset]

            def _build() -> list[str]:
                bundle = builder()
                return [document.data.content_fingerprint()
                        for document in bundle.documents]

            keys = await asyncio.get_running_loop().run_in_executor(
                None, _build
            )
            self._fingerprints[dataset] = keys
            return keys


class ClusterRouter:
    """Admission, routing, event fan-out, and aggregation for N shards."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.routing = RoutingTable(self.config.profile)
        self.ring = HashRing(range(self.config.workers),
                             self.config.replicas)
        self.socket_dir = tempfile.mkdtemp(prefix="cedar-cluster-")
        self.supervisor = WorkerSupervisor(
            worker_argv=self._worker_argv,
            socket_path=lambda worker_id: os.path.join(
                self.socket_dir, f"worker-{worker_id}.sock"
            ),
            count=self.config.workers,
            spawn_timeout=self.config.spawn_timeout,
            respawn=self.config.respawn,
            on_worker_lost=self._worker_lost,
        )
        self.records: dict[str, JobRecord] = {}
        self.draining = False
        self._client_open: dict[str, int] = {}
        self._worker_open: dict[int, set[str]] = {
            worker_id: set() for worker_id in range(self.config.workers)
        }
        self._routed: dict[int, int] = dict.fromkeys(
            range(self.config.workers), 0
        )
        self._shed: dict[str, int] = {}
        self._jobs_lost = 0
        self._jobs_lost_by_worker: dict[int, int] = dict.fromkeys(
            range(self.config.workers), 0
        )
        self._events_delivered = 0
        self._open_streams = 0
        self._trace_seq = itertools.count(1)
        self._health_task: asyncio.Task | None = None
        self._http: HttpServer | None = None
        #: The router process's last structured log records, behind
        #: /v1/debug/logs (worker lines go to their own --log-file).
        self.log_buffer = attach(LogRing())
        self._log_file = (
            attach(logging.FileHandler(self.config.log_file,
                                       encoding="utf-8"))
            if self.config.log_file else None
        )

    # -- worker process plumbing --------------------------------------------

    def _worker_argv(self, worker_id: int, socket_path: str) -> list[str]:
        config = self.config
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--socket", socket_path,
            "--worker-id", str(worker_id),
            "--seed", str(config.seed),
            "--profile", config.profile,
            "--workers", str(config.shard_threads),
        ]
        if config.cache_db:
            argv += ["--cache-db", config.cache_db]
        if config.latency_scale > 0:
            argv += ["--latency-scale", str(config.latency_scale)]
        if not config.tracing:
            argv += ["--no-tracing"]
        if config.log_file:
            argv += ["--log-file", f"{config.log_file}.w{worker_id}"]
        return argv

    async def start(self) -> "ClusterRouter":
        await self.supervisor.start()
        self._health_task = asyncio.ensure_future(self._health_loop())
        return self

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(HEALTH_INTERVAL)
            with contextlib.suppress(Exception):
                replies = await self.supervisor.broadcast(
                    "health", timeout=10.0,
                )
                for worker_id, reply in replies.items():
                    link = self.supervisor.link(worker_id)
                    if link is None or reply is None:
                        continue
                    link.ready = bool(reply.get("ready"))
                    link.queue_depth = int(reply.get("queue_depth", 0))

    # -- failure conversion --------------------------------------------------

    def _worker_lost(self, worker_id: int, error: str) -> None:
        """Turn the dead shard's open jobs into worker_lost terminals."""
        lost_here = 0
        for job_id in list(self._worker_open.get(worker_id, ())):
            record = self.records.get(job_id)
            if record is None or record.terminal:
                continue
            lost_here += 1
            self._lose(record, error)
        if lost_here:
            _log.warning("jobs_lost", extra={"fields": {
                "worker": worker_id, "jobs": lost_here, "error": error,
            }})

    def _lose(self, record: JobRecord, error: str) -> None:
        """End an open record's stream with a ``worker_lost`` line."""
        worker_id = record.worker_id
        self._jobs_lost += 1
        self._jobs_lost_by_worker[worker_id] = (
            self._jobs_lost_by_worker.get(worker_id, 0) + 1
        )
        event = WorkerLost(job_id=record.job_id, worker=worker_id,
                           error=error)
        self._append_lines(record, [event.to_json()], event.kind)

    def _append_lines(self, record: JobRecord, lines: list[str],
                      last: str) -> None:
        """Buffer one burst and hand it, as is, to every follower."""
        if record.terminal:
            return  # absorbing: nothing follows the terminal event
        record.events.extend(lines)
        record.last = last
        if record.terminal:
            if record.root is not None:
                record.root.end = time.monotonic()
                if last in ("job_failed", "worker_lost"):
                    record.root.status = "error"
                record.root.set(outcome=last)
            self._release(record)
        for queue in record.subscribers:
            queue.put_nowait(lines)

    def _release(self, record: JobRecord) -> None:
        self._worker_open.get(record.worker_id, set()).discard(
            record.job_id
        )
        remaining = self._client_open.get(record.client_id, 1) - 1
        if remaining > 0:
            self._client_open[record.client_id] = remaining
        else:
            self._client_open.pop(record.client_id, None)

    def _on_stream_frame(self, record: JobRecord, frame: dict) -> None:
        if "lines" in frame:
            self._append_lines(record, frame["lines"], frame["last"])
        elif frame.get("lost") and not record.terminal:
            # The link died and this subscription's synthetic end frame
            # arrived before (or without) the slot-level callback.
            self._lose(record, str(frame["lost"]))

    # -- admission and routing ----------------------------------------------

    def _shed_response(self, code: str, message: str,
                       queue_depth: int) -> tuple[int, dict]:
        self._shed[code] = self._shed.get(code, 0) + 1
        _log.warning("submission_shed", extra={"fields": {
            "reason": code, "queue_depth": queue_depth,
        }})
        body: dict = {"rejected": {"code": code, "message": message}}
        body["retry_after_seconds"] = retry_after_seconds(queue_depth)
        return _REJECTION_STATUS.get(code, 429), body

    def _total_open(self) -> int:
        return sum(len(open_) for open_ in self._worker_open.values())

    async def submit(self, payload: dict) -> tuple[int, dict]:
        """Route one submission; mirrors ``ServiceApp.submit``'s API."""
        t_start = time.monotonic()
        error = submission_error(payload, self.routing.datasets)
        if error is not None:
            return 400, error
        dataset = payload.get("dataset", "aggchecker")
        index = payload.get("document", 0)
        if self.draining:
            return self._shed_response(
                REASON_DRAINING,
                "cluster is draining and not accepting new jobs",
                self._total_open(),
            )
        client_id = str(payload.get("client_id", "default"))
        open_jobs = self._client_open.get(client_id, 0)
        if open_jobs >= self.config.per_client_limit:
            return self._shed_response(
                REASON_CLIENT_LIMIT,
                f"client {client_id!r} already has {open_jobs} jobs in "
                f"flight across the cluster "
                f"(limit {self.config.per_client_limit})",
                self._total_open(),
            )
        t_admitted = time.monotonic()
        fingerprints = await self.routing.fingerprints(dataset)
        if not 0 <= index < len(fingerprints):
            return 400, {
                "error": f"document index out of range "
                         f"(0..{len(fingerprints) - 1})",
            }
        fingerprint = fingerprints[index]
        worker_id = self.ring.route(
            fingerprint, self.supervisor.live_workers()
        )
        t_routed = time.monotonic()
        if worker_id is None:
            return self._shed_response(
                REASON_WORKER_LOST,
                "no live worker to route to (respawn in progress)",
                self._total_open(),
            )
        shard_open = len(self._worker_open[worker_id])
        if shard_open >= self.config.max_shard_inflight:
            return self._shed_response(
                REASON_QUEUE_FULL,
                f"shard {worker_id} is at its in-flight limit "
                f"({self.config.max_shard_inflight}); retry with backoff",
                shard_open,
            )
        link = self.supervisor.link(worker_id)
        if link is None:
            return self._shed_response(
                REASON_WORKER_LOST,
                f"worker {worker_id} went away before the job was sent",
                self._total_open(),
            )
        # The trace id is minted before the RPC so the context can ride
        # the submit frame; it is a sequence number, never clock-derived.
        trace_id = (f"trace-{next(self._trace_seq):06d}"
                    if self.config.tracing else None)
        submit_payload = {
            "dataset": dataset,
            "document": index,
            "client_id": client_id,
            "priority": payload.get("priority", 0),
        }
        if trace_id is not None:
            submit_payload["trace"] = make_trace_context(trace_id)
        t_rpc_start = time.monotonic()
        try:
            reply = await link.request("submit", payload=submit_payload)
        except (WorkerGone, asyncio.TimeoutError):
            return self._shed_response(
                REASON_WORKER_LOST,
                f"worker {worker_id} died while accepting the job; "
                "it is being respawned",
                self._total_open(),
            )
        t_rpc_end = time.monotonic()
        status = int(reply.get("status", 500))
        body = dict(reply.get("body") or {})
        if status != 202:
            # Worker-side rejection (it keeps its own bounded queue as
            # a second line of defence); count it as shed traffic too.
            code = (body.get("rejected") or {}).get("code")
            if code:
                self._shed[code] = self._shed.get(code, 0) + 1
            return status, body
        worker_job_id = str(body["job_id"])
        job_id = f"w{worker_id}g{link.generation}-{worker_job_id}"
        record = JobRecord(
            job_id=job_id,
            worker_id=worker_id,
            worker_job_id=worker_job_id,
            client_id=client_id,
            fingerprint=fingerprint,
        )
        if trace_id is not None:
            record.trace_id = trace_id
            record.root = self._build_job_root(
                record, trace_id, dataset, index, link.generation,
                t_start, t_admitted, t_routed, t_rpc_start, t_rpc_end,
            )
        self.records[job_id] = record
        self._worker_open[worker_id].add(job_id)
        self._client_open[client_id] = (
            self._client_open.get(client_id, 0) + 1
        )
        self._routed[worker_id] = self._routed.get(worker_id, 0) + 1
        _log.info("job_routed", extra={"fields": {
            "job_id": job_id, "worker": worker_id, "client_id": client_id,
            "dataset": dataset, "document": index,
            **({"trace_id": trace_id} if trace_id is not None else {}),
        }})
        try:
            await link.subscribe(
                worker_job_id, job_id,
                lambda frame: self._on_stream_frame(record, frame),
            )
        except WorkerGone:
            if not record.terminal:
                self._lose(record,
                           "worker died right after accepting the job")
        body["job_id"] = job_id
        body["worker"] = worker_id
        body["events_url"] = f"/v1/jobs/{job_id}/events"
        return 202, body

    def _build_job_root(
        self,
        record: JobRecord,
        trace_id: str,
        dataset: str,
        index: int,
        ring_generation: int,
        t_start: float,
        t_admitted: float,
        t_routed: float,
        t_rpc_start: float,
        t_rpc_end: float,
    ) -> Span:
        """The router's per-job root span, built from recorded stamps.

        Spans are constructed by hand (not via a Tracer) because many
        submit coroutines interleave on this one thread — a shared
        span *stack* would nest their spans into each other. The root
        stays open until the job's terminal event closes it.
        """
        root = Span(f"job:{record.job_id}", "job", t_start, {
            "job_id": record.job_id,
            "trace_id": trace_id,
            "client_id": record.client_id,
            "dataset": dataset,
            "document": index,
            "worker": record.worker_id,
        })
        admission = Span("admission", "admission", t_start, {
            "client_id": record.client_id,
            "client_open": self._client_open.get(record.client_id, 0),
            "cluster_open": self._total_open(),
        })
        admission.end = t_admitted
        route = Span("route", "route", t_admitted, {
            "worker": record.worker_id,
            "ring_generation": ring_generation,
            "fingerprint": record.fingerprint,
            "live_workers": len(self.supervisor.live_workers()),
        })
        route.end = t_routed
        rpc = Span("rpc:submit", "rpc", t_rpc_start, {
            "op": "submit",
            "worker": record.worker_id,
            "worker_job_id": record.worker_job_id,
        })
        rpc.end = t_rpc_end
        root.children.extend([admission, route, rpc])
        root.end = t_rpc_end
        return root

    async def job_trace(self, job_id: str,
                        fmt: str = "") -> tuple[int, dict]:
        """One stitched trace: router spans with the worker tree grafted.

        The worker's span forest (queue wait + per-document waterfall)
        is fetched over the ``trace`` op, its wall times rebased onto
        the router's clock (the two monotonic clocks share no epoch:
        the worker's earliest span is aligned with the submit RPC), and
        its roots grafted under the router's job root after the
        admission/route/rpc children. Structural span ids are assigned
        at render time, so the stitched tree is byte-identical across
        reruns once wall times are stripped. ``fmt="tree"`` returns the
        raw span tree; the default is Chrome trace-event JSON.
        """
        record = self.records.get(job_id)
        if record is None:
            return 404, {"error": f"no job {job_id!r}"}
        if record.root is None:
            return 404, {"error": f"no trace for job {job_id!r} "
                                  "(tracing is disabled)"}
        # Render from a deep copy: repeated GETs must not accumulate
        # grafted subtrees (or stale annotations) on the live record.
        root = span_from_dict(record.root.to_dict(include_times=True))
        rpc = root.children[-1]
        link = self.supervisor.link(record.worker_id)
        reply = None
        if link is not None:
            with contextlib.suppress(WorkerGone, asyncio.TimeoutError):
                reply = await link.request(
                    "trace", job_id=record.worker_job_id,
                )
        if reply and reply.get("ok") and reply.get("spans"):
            worker_roots = spans_from_dicts(reply["spans"])
            delta = rpc.start - min(span.start for span in worker_roots)
            for span in worker_roots:
                shift_times(span, delta)
                span.set(worker=record.worker_id)
            root.children.extend(worker_roots)
            root.end = max(root.end,
                           max(span.end for span in worker_roots))
        else:
            # Respawned shard (the job died with its process), tracing
            # off worker-side, or the worker is mid-crash right now.
            root.set(worker_trace="unavailable")
        annotate_critical_path(root)
        if fmt == "tree":
            return 200, {
                "job_id": job_id,
                "trace_id": record.trace_id,
                "spans": [root.to_dict("1", include_times=True)],
            }
        return 200, to_chrome_trace([root], process_name=job_id)

    # -- job introspection ---------------------------------------------------

    async def job_summary(self, job_id: str) -> tuple[int, dict]:
        record = self.records.get(job_id)
        if record is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, {
            "job_id": job_id,
            "worker": record.worker_id,
            "terminal": record.terminal,
            "state": record.last if record.terminal else "open",
            "events": len(record.events),
        }

    async def job_events(
        self, job_id: str, wait: bool, timeout: float,
    ) -> AsyncIterator[list[str]] | None:
        """The job's ndjson lines in bursts: the backlog as one, then —
        with ``wait`` — each burst as the worker sends it, until the
        terminal event or ``timeout`` seconds from now."""
        record = self.records.get(job_id)
        if record is None:
            return None

        async def _stream() -> AsyncIterator[list[str]]:
            queue: asyncio.Queue = asyncio.Queue()
            if record.events:
                queue.put_nowait(list(record.events))
            following = wait and not record.terminal
            if following:
                record.subscribers.add(queue)
            self._open_streams += 1
            deadline = time.monotonic() + timeout
            try:
                while following or not queue.empty():
                    if queue.empty():
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return  # ?wait deadline: end where it stands
                        try:
                            lines = await asyncio.wait_for(
                                queue.get(), remaining,
                            )
                        except asyncio.TimeoutError:
                            return
                    else:
                        lines = queue.get_nowait()
                    self._events_delivered += len(lines)
                    yield lines
                    following = following and not record.terminal
            finally:
                self._open_streams -= 1
                record.subscribers.discard(queue)

        return _stream()

    # -- probes and aggregation ----------------------------------------------

    async def health(self) -> tuple[int, dict]:
        """Liveness: the router process itself is up."""
        return 200, {
            "status": "ok",
            "draining": self.draining,
            "workers": self.config.workers,
            "live_workers": len(self.supervisor.live_workers()),
        }

    async def ready(self) -> tuple[int, dict]:
        """Readiness: accepting jobs and at least one shard is ready."""
        shards = {
            str(worker_id): {
                "live": slot.alive,
                "ready": slot.ready,
            }
            for worker_id, slot in self.supervisor.slots.items()
        }
        ready_count = sum(1 for s in shards.values()
                          if s["live"] and s["ready"])
        is_ready = not self.draining and ready_count >= 1
        body = {
            "ready": is_ready,
            "draining": self.draining,
            "degraded": ready_count < self.config.workers,
            "workers": shards,
        }
        if not is_ready:
            body["retry_after_seconds"] = retry_after_seconds(
                self._total_open()
            )
            return 503, body
        return 200, body

    def _cluster_stats(self) -> dict:
        shards = {}
        for worker_id, slot in self.supervisor.slots.items():
            link = slot.link
            shards[str(worker_id)] = {
                "live": slot.alive,
                "ready": slot.ready,
                "generation": slot.generation,
                "restarts": slot.restarts,
                "queue_depth": link.queue_depth if link else 0,
                "open_jobs": len(self._worker_open.get(worker_id, ())),
                "routed_total": self._routed.get(worker_id, 0),
                "jobs_lost": self._jobs_lost_by_worker.get(worker_id, 0),
            }
        return {
            "workers": self.config.workers,
            "live_workers": len(self.supervisor.live_workers()),
            "draining": self.draining,
            "restarts": self.supervisor.total_restarts,
            "jobs": {
                "routed": sum(self._routed.values()),
                "open": self._total_open(),
                "lost": self._jobs_lost,
                "shed": dict(sorted(self._shed.items())),
            },
            "events": {
                "open_streams": self._open_streams,
                "delivered": self._events_delivered,
            },
            "shards": shards,
        }

    async def stats(self) -> tuple[int, dict]:
        """Cluster-level counters plus every shard's own stats dict."""
        replies = await self.supervisor.broadcast("stats", timeout=30.0)
        workers = {
            str(worker_id): (reply or {}).get("stats")
            for worker_id, reply in replies.items()
        }
        totals = {"submitted": 0, "completed": 0, "failed": 0,
                  "cancelled": 0, "rejected": 0}
        queue_depth = 0
        for stats in workers.values():
            if not stats:
                continue
            for key in totals:
                totals[key] += stats.get("jobs", {}).get(key, 0)
            queue_depth += stats.get("queue_depth", 0)
        return 200, {
            "cluster": self._cluster_stats(),
            "jobs": totals,
            "queue_depth": queue_depth,
            "workers": workers,
        }

    # -- drain and shutdown --------------------------------------------------

    async def drain(self, timeout: float = 300.0) -> None:
        """Stop admitting, flush every accepted job, settle all streams."""
        self.draining = True
        await self.supervisor.drain_all(timeout=timeout)
        deadline = time.monotonic() + timeout
        while self._total_open() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    async def stop(self) -> None:
        # HTTP first, while the workers still answer: a stream open now
        # reads on to its terminal line or its deadline.
        if self._http is not None:
            await self._http.close()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        await self.supervisor.stop()
        shutil.rmtree(self.socket_dir, ignore_errors=True)
        # Detach this router's handlers from the process-wide ``repro``
        # logger so a later router in the same process starts clean.
        detach(self.log_buffer)
        if self._log_file is not None:
            detach(self._log_file)

    async def serve_http(self, host: str = "127.0.0.1",
                         port: int = 8100) -> tuple[str, int]:
        """Serve ``/v1`` through the shared HTTP layer; returns the
        bound (host, port)."""
        self._http = HttpServer(self)
        return await self._http.start(host, port)
