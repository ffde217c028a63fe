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

The HTTP layer underneath is a hand-rolled asyncio HTTP/1.1 server —
the same framework-free stance as the stdlib single-process front end,
minus the thread-per-connection cost that motivated this subsystem.

Observability (docs/observability.md): every accepted job gets a router
root span (admission → routing decision → worker RPC) whose trace
context rides the submit frame; ``GET /v1/jobs/<id>/trace`` stitches
the worker's span tree back under that root into one Chrome trace.
``GET /v1/telemetry`` serves the router's rolling telemetry window plus
every shard's, and ``GET /v1/debug/logs?n=`` tails the structured-log
ring buffer. Router spans are built by hand from recorded timestamps —
never through a shared ``Tracer``, whose thread-local span stack would
cross-contaminate between interleaved coroutines on the one event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable

from repro.obs.export import to_chrome_trace, to_prometheus
from repro.obs.logging import (
    FileSink,
    RingBufferSink,
    add_sink,
    get_logger,
    remove_sink,
)
from repro.obs.metrics import Metric, merge_metrics
from repro.obs.telemetry import TelemetryWindow
from repro.obs.tracer import (
    Span,
    annotate_critical_path,
    shift_times,
    span_from_dict,
    spans_from_dicts,
)
from repro.service import WorkerLost, retry_after_seconds
from repro.service.http import BodyRejected, declared_body_length
from repro.service.queue import (
    REASON_CLIENT_LIMIT,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
)

from .protocol import make_trace_context
from .ring import DEFAULT_REPLICAS, HashRing
from .supervisor import WorkerGone, WorkerSupervisor
from .worker import dataset_builders

#: Event kinds that end a job's stream.
TERMINAL_KINDS = frozenset(
    {"job_done", "job_failed", "job_cancelled", "worker_lost"}
)

#: Rejection code for a shard that died between admission and ack.
REASON_WORKER_LOST = "worker_lost"

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
    shard_threads: int = 4           # verifier threads inside each worker
    shard_queue_depth: int = 64
    shard_max_batch: int = 8
    shard_cache_size: int = 1024
    cache_db: str | None = None      # shared persistent L2 (optional)
    latency_scale: float = 0.0       # simulated model latency (bench)
    socket_dir: str | None = None    # default: a fresh temp dir
    spawn_timeout: float = 60.0
    health_interval: float = 1.0
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

    def knows(self, dataset: str) -> bool:
        return dataset in self._builders

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
        self._own_socket_dir = self.config.socket_dir is None
        self.socket_dir = (
            self.config.socket_dir
            if self.config.socket_dir is not None
            else tempfile.mkdtemp(prefix="cedar-cluster-")
        )
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
        self._http_server: asyncio.AbstractServer | None = None
        self._log = get_logger("cluster.router")
        #: The last 512 structured log records (router process only —
        #: each worker serves its own ring), behind /v1/debug/logs.
        self.log_buffer = RingBufferSink(512)
        add_sink(self.log_buffer)
        self._file_sink: FileSink | None = None
        if self.config.log_file:
            self._file_sink = FileSink(self.config.log_file)
            add_sink(self._file_sink)
        #: Router-side rolling telemetry window; /v1/telemetry merges
        #: this with every shard's own window.
        self.telemetry = TelemetryWindow()
        self._wire_telemetry()

    def _wire_telemetry(self) -> None:
        window = self.telemetry
        window.register_gauges(lambda: {
            "open_jobs": self._total_open(),
            "open_event_streams": self._open_streams,
            "live_workers": len(self.supervisor.live_workers()),
            "queue_depth": sum(
                slot.link.queue_depth
                for slot in self.supervisor.slots.values()
                if slot.link is not None and slot.link.alive
            ),
        })
        window.register_counters("cluster", lambda: {
            "jobs_routed": sum(self._routed.values()),
            "jobs_lost": self._jobs_lost,
            "events_delivered": self._events_delivered,
            "worker_restarts": self.supervisor.total_restarts,
        })
        window.register_counters(
            "shed", lambda: dict(self._shed), keyed_by="reason",
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
            "--queue-depth", str(config.shard_queue_depth),
            "--max-batch", str(config.shard_max_batch),
            "--cache-size", str(config.shard_cache_size),
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
            await asyncio.sleep(self.config.health_interval)
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
            self._log.warning("jobs_lost", worker=worker_id,
                              jobs=lost_here, error=error)

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
        self._log.warning("submission_shed", reason=code,
                          queue_depth=queue_depth)
        body: dict = {"rejected": {"code": code, "message": message}}
        body["retry_after_seconds"] = retry_after_seconds(queue_depth)
        return _REJECTION_STATUS.get(code, 429), body

    def _total_open(self) -> int:
        return sum(len(open_) for open_ in self._worker_open.values())

    async def submit(self, payload: dict) -> tuple[int, dict]:
        """Route one submission; mirrors ``ServiceApp.submit``'s API."""
        t_start = time.monotonic()
        dataset = payload.get("dataset", "aggchecker")
        if not self.routing.knows(dataset):
            return 400, {"error": f"unknown dataset {dataset!r}",
                         "datasets": self.routing.datasets}
        index = payload.get("document", 0)
        if not isinstance(index, int):
            return 400, {"error": "document must be an integer index"}
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
        self._log.info(
            "job_routed", job_id=job_id, worker=worker_id,
            client_id=client_id, dataset=dataset, document=index,
            **({"trace_id": trace_id} if trace_id is not None else {}),
        )
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

    def job_summary(self, job_id: str) -> tuple[int, dict]:
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

    def health(self) -> tuple[int, dict]:
        """Liveness: the router process itself is up."""
        return 200, {
            "status": "ok",
            "draining": self.draining,
            "workers": self.config.workers,
            "live_workers": len(self.supervisor.live_workers()),
        }

    def ready(self) -> tuple[int, dict]:
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

    def _own_metrics(self) -> list[Metric]:
        metrics = [
            Metric.gauge("cedar_cluster_workers", self.config.workers,
                         "Configured worker slots"),
            Metric.gauge("cedar_cluster_live_workers",
                         len(self.supervisor.live_workers()),
                         "Worker slots with a live connection"),
            Metric.gauge("cedar_cluster_open_event_streams",
                         self._open_streams,
                         "Client event streams currently open"),
            Metric.counter("cedar_cluster_events_delivered_total",
                           self._events_delivered,
                           "Events fanned out to client streams"),
        ]
        for worker_id in range(self.config.workers):
            labels = {"worker": str(worker_id)}
            link = self.supervisor.link(worker_id)
            slot = self.supervisor.slots[worker_id]
            metrics.append(Metric.counter(
                "cedar_cluster_jobs_routed_total",
                self._routed.get(worker_id, 0),
                "Jobs routed to each shard", labels,
            ))
            # Restarts and losses stay per-worker only (no unlabelled
            # aggregate sample — Prometheus would double-count the sum).
            metrics.append(Metric.counter(
                "cedar_cluster_worker_restarts_total",
                slot.restarts,
                "Workers respawned after a crash", labels,
            ))
            metrics.append(Metric.counter(
                "cedar_cluster_jobs_lost_total",
                self._jobs_lost_by_worker.get(worker_id, 0),
                "Jobs ended by a worker_lost event", labels,
            ))
            metrics.append(Metric.gauge(
                "cedar_cluster_queue_depth",
                link.queue_depth if link is not None else 0,
                "Last-probed queue depth per shard", labels,
            ))
            metrics.append(Metric.gauge(
                "cedar_cluster_open_jobs",
                len(self._worker_open.get(worker_id, ())),
                "Router-tracked open jobs per shard", labels,
            ))
        for code, count in sorted(self._shed.items()):
            metrics.append(Metric.counter(
                "cedar_cluster_jobs_shed_total", count,
                "Submissions shed at admission", {"reason": code},
            ))
        return metrics

    async def metrics_text(self) -> str:
        """Aggregated Prometheus text: router families plus every
        shard's registry relabelled with ``worker=<id>`` and the slot's
        ``generation``, so a scrape after a crash-respawn never merges
        the dead process's counters with its replacement's."""
        from .protocol import metrics_from_wire

        replies = await self.supervisor.broadcast("metrics", timeout=30.0)
        merged: list[Metric] = list(self._own_metrics())
        for worker_id, reply in sorted(replies.items()):
            if not reply or "metrics" not in reply:
                continue
            generation = self.supervisor.slots[worker_id].generation
            merged.extend(metrics_from_wire(
                reply["metrics"],
                {"worker": str(worker_id),
                 "generation": str(generation)},
            ))
        return to_prometheus(merge_metrics(merged))

    async def telemetry_snapshot(self) -> tuple[int, dict]:
        """The router's telemetry window plus every live shard's own."""
        replies = await self.supervisor.broadcast("telemetry",
                                                  timeout=30.0)
        workers = {
            str(worker_id): (reply or {}).get("telemetry")
            for worker_id, reply in sorted(replies.items())
        }
        return 200, {
            "cluster": self.telemetry.snapshot(),
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
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        await self.supervisor.stop()
        if self._http_server is not None:
            self._http_server.close()
            with contextlib.suppress(Exception):
                await self._http_server.wait_closed()
        if self._own_socket_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)
        # Detach this router's sinks from the process-global logging
        # state so a later router in the same process starts clean.
        remove_sink(self.log_buffer)
        if self._file_sink is not None:
            remove_sink(self._file_sink)
            self._file_sink.close()

    # -- the asyncio HTTP front end ------------------------------------------

    async def serve_http(self, host: str = "127.0.0.1",
                         port: int = 8100) -> tuple[str, int]:
        """Start the HTTP server; returns the bound (host, port)."""
        self._http_server = await asyncio.start_server(
            self._serve_client, host, port,
        )
        bound = self._http_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_http_request(reader)
                except BodyRejected as error:
                    # The body stays unread: answer, then hang up.
                    await _send_json(writer, error.status,
                                     {"error": str(error)})
                    return
                if request is None:
                    return
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._route(method, path, query, body, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-request/stream
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _route(self, method: str, path: str, query: dict,
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        parts = [part for part in path.split("/") if part]
        if parts and parts[0] == "v1":
            parts = parts[1:]
        if method == "POST" and parts == ["verify"]:
            try:
                payload = json.loads(body or b"{}")
                if not isinstance(payload, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as error:
                await _send_json(writer, 400,
                                 {"error": f"bad request body: {error}"})
                return
            status, reply = await self.submit(payload)
            await _send_json(writer, status, reply)
        elif method == "GET" and parts == ["healthz"]:
            status, reply = self.health()
            await _send_json(writer, status, reply)
        elif method == "GET" and parts == ["readyz"]:
            status, reply = self.ready()
            await _send_json(writer, status, reply)
        elif method == "GET" and parts == ["stats"]:
            status, reply = await self.stats()
            await _send_json(writer, status, reply)
        elif method == "GET" and parts == ["metrics"]:
            await _send_text(
                writer, 200, await self.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "GET" and parts == ["telemetry"]:
            status, reply = await self.telemetry_snapshot()
            await _send_json(writer, status, reply)
        elif method == "GET" and parts == ["debug", "logs"]:
            try:
                count = int(query.get("n", "100"))
                if count < 0:
                    raise ValueError
            except ValueError:
                await _send_json(
                    writer, 400,
                    {"error": "n must be a non-negative integer"},
                )
                return
            await _send_text(
                writer, 200, self.log_buffer.to_ndjson(count),
                "application/x-ndjson",
            )
        elif (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "trace"):
            status, reply = await self.job_trace(
                parts[1], query.get("format", ""),
            )
            await _send_json(writer, status, reply)
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            status, reply = self.job_summary(parts[1])
            await _send_json(writer, status, reply)
        elif (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "events"):
            wait = query.get("wait", "0") not in ("0", "", "false")
            try:
                timeout = float(query.get("timeout", "30"))
                if not math.isfinite(timeout) or timeout < 0:
                    raise ValueError
            except ValueError:
                await _send_json(
                    writer, 400,
                    {"error": "timeout must be a non-negative number"},
                )
                return
            stream = await self.job_events(parts[1], wait, timeout)
            if stream is None:
                await _send_json(writer, 404,
                                 {"error": f"no job {parts[1]!r}"})
                return
            await _send_ndjson(writer, stream)
        else:
            await _send_json(writer, 404,
                             {"error": f"no route for {method} {path}"})


# -- minimal asyncio HTTP/1.1 plumbing ---------------------------------------

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
             404: "Not Found", 409: "Conflict",
             413: "Request Entity Too Large", 429: "Too Many Requests",
             500: "Internal Server Error", 503: "Service Unavailable"}

_MAX_HEADER_LINES = 100


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, dict, bytes] | None:
    """Parse one request; None on EOF/garbage (connection then closes).

    Raises :class:`~repro.service.http.BodyRejected` for a hostile
    ``Content-Length``, before reading any of the body."""
    line = await reader.readline()
    if not line or b" " not in line:
        return None
    try:
        method, target, _version = line.decode("latin1").split(None, 2)
    except ValueError:
        return None
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = declared_body_length(headers.get("content-length"))
    if length:
        body = await reader.readexactly(length)
    path, _, query_string = target.partition("?")
    query: dict[str, str] = {}
    for pair in query_string.split("&"):
        if pair:
            key, _, value = pair.partition("=")
            query[key] = value
    return method.upper(), path, query, headers, body


async def _send_json(writer: asyncio.StreamWriter, status: int,
                     body: dict) -> None:
    payload = json.dumps(body, sort_keys=True).encode()
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
    ]
    if "retry_after_seconds" in body:
        headers.append(f"Retry-After: {int(body['retry_after_seconds'])}")
    writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + payload)
    await writer.drain()


async def _send_text(writer: asyncio.StreamWriter, status: int,
                     body: str, content_type: str) -> None:
    payload = body.encode()
    writer.write((
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload)
    await writer.drain()


async def _send_ndjson(writer: asyncio.StreamWriter,
                       stream: AsyncIterator[list[str]]) -> None:
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
    )
    async for lines in stream:
        # One chunk per burst; the lines are the worker's, untouched.
        chunk = ("\n".join(lines) + "\n").encode()
        writer.write(f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n")
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()
