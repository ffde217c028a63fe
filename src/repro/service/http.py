"""The HTTP/1.1 front end of the service and the cluster router.

``python -m repro.service`` and ``python -m repro.cluster`` serve these
endpoints, mounted under the versioned ``/v1/`` prefix:

* ``POST /v1/verify`` — body ``{"dataset": "tabfact", "document": 0}``
  (optional ``"client_id"``, ``"priority"``, ``"trace"``; ``document``
  and ``priority`` must be JSON integers, and ``true`` is not one). Clones
  the dataset document under a request-unique tag and submits it;
  replies ``202`` with the job id, or a structured rejection: ``429``
  (queue full / client limit), ``503`` (draining), ``409`` (claim-id
  conflict). A ``Content-Length`` that is not a non-negative integer
  gets ``400``, one above 1 MiB ``413``; either way the body is never
  read and the connection closes.
* ``GET /v1/jobs/<id>`` — job state summary.
* ``GET /v1/jobs/<id>/events`` — the job's event stream as ndjson.
  ``?wait=1`` streams until the terminal event or until
  ``&timeout=<seconds>`` (default 30) after the request, whichever
  comes first; without it, replays the events so far.
* ``GET /v1/jobs/<id>/trace`` — the job's span tree as Chrome
  trace-event JSON (queue wait plus the per-document verification
  waterfall); save it and load it in Perfetto or ``chrome://tracing``.
* ``GET /v1/healthz`` — liveness (always 200 while the process is up).
* ``GET /v1/readyz`` — readiness: 200 while submissions are accepted,
  503 once draining; the 503 carries a ``Retry-After`` hint. Rejected
  submissions (429/503) carry the same queue-depth-derived header.
* ``GET /v1/stats`` — queue depth, cache hit rate (L1 and
  persistent L2 tiers when configured), SQL-engine counters (plan
  cache, result cache, join strategies), ledger spend (including
  cumulative retry backoff), and the latency histogram.
* ``GET /v1/metrics`` — the ``/v1/stats`` body rendered as Prometheus
  text exposition (:func:`~repro.obs.export.to_prometheus`), ready for
  a scrape config.
* ``GET /v1/debug/logs?n=`` — the last ``n`` structured log records as
  ndjson, straight out of the door's ring buffer
  (docs/observability.md "Structured logs").

Any other path — an unversioned ``/healthz``, a ``/v2/...`` — gets a
structured 404 naming the supported versions.

One implementation serves both doors. :class:`HttpServer` is a
framework-free asyncio HTTP/1.1 server (keep-alive, pipelined requests
answered in order, chunked ndjson with one chunk per burst of events)
that awaits route methods on a backend: :class:`ServiceServer`, which
:func:`make_server` returns, over a :class:`ServiceApp`, or the
:class:`~repro.cluster.router.ClusterRouter`. Every request against a
dataset shares one service-wide response cache and ledger; each job is
one verifier run.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
import socket
import sys
import threading
import time
from typing import AsyncIterator, Callable, Iterable
from urllib.parse import parse_qsl

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import (
    DatasetBundle,
    build_aggchecker,
    build_tabfact,
    build_wikitext,
)
from repro.experiments import build_cedar
from repro.obs.export import to_chrome_trace, to_prometheus
from repro.obs.logs import LogRing, attach, detach

from .queue import (
    REASON_CLIENT_LIMIT,
    REASON_CONFLICT,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    RETRYABLE_REASONS,
    AdmissionError,
    retry_after_seconds,
)
from .service import QUEUED, JobHandle, VerificationService, clone_document

#: The datasets served by default — also the cluster workers' default
#: profile, so the router and its shards agree on document identity.
DEFAULT_DATASETS: dict[str, Callable[[], DatasetBundle]] = {
    "aggchecker": lambda: build_aggchecker(document_count=12,
                                           total_claims=72),
    "tabfact": lambda: build_tabfact(table_count=8, total_claims=28),
    "wikitext": lambda: build_wikitext(document_count=5, total_claims=18),
}

#: The one API version this build serves.
API_VERSION = "v1"

#: HTTP status per admission-rejection code.
_REJECTION_STATUS = {
    REASON_QUEUE_FULL: 429,
    REASON_CLIENT_LIMIT: 429,
    REASON_DRAINING: 503,
    REASON_CONFLICT: 409,
}

#: The largest request body either front door will read; a
#: ``/v1/verify`` body is a few dozen bytes.
MAX_BODY_BYTES = 1 << 20


class BodyRejected(ValueError):
    """A request whose declared body the server refuses to read."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def declared_body_length(raw: str | None) -> int:
    """A ``Content-Length`` header value as the byte count to read.

    Raises :class:`BodyRejected` — 400 unless the value is a plain
    non-negative decimal, 413 above :data:`MAX_BODY_BYTES` — so a
    hostile header is answered before any of the body is read.
    """
    if not raw:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        raise BodyRejected(
            400, "Content-Length must be a non-negative integer"
        )
    digits = raw.lstrip("0") or "0"
    # Judged by width first: int() itself refuses absurdly long input.
    too_wide = len(digits) > len(str(MAX_BODY_BYTES))
    length = MAX_BODY_BYTES + 1 if too_wide else int(digits)
    if length > MAX_BODY_BYTES:
        raise BodyRejected(
            413, f"request body over the {MAX_BODY_BYTES}-byte limit"
        )
    return length


def submission_error(payload: dict, datasets: list[str]) -> dict | None:
    """The 400 body for a ``POST /v1/verify`` payload naming an unknown
    dataset, or whose ``document`` or ``priority`` is not an ``int``
    (``True`` is an ``int`` to ``isinstance``, not to this); else None."""
    name = payload.get("dataset", "aggchecker")
    if not isinstance(name, str) or name not in datasets:
        return {"error": f"unknown dataset {name!r}", "datasets": datasets}
    for key in ("document", "priority"):
        if type(payload.get(key, 0)) is not int:
            return {"error": f"{key} must be an integer"}
    return None


def trace_context(payload) -> dict | None:
    """The ``"trace"`` context of a routed submission (see
    ``cluster/protocol.py``), cut down to its two keys; None when it is
    absent or malformed. A malformed context is dropped, never fatal:
    tracing is observability, and a bad context must not fail the job.
    """
    if not isinstance(payload, dict):
        return None
    trace_id = payload.get("trace_id")
    parent_span = payload.get("parent_span", "1")
    if not (isinstance(trace_id, str) and trace_id
            and isinstance(parent_span, str) and parent_span):
        return None
    return {"trace_id": trace_id, "parent_span": parent_span}


class ServiceApp:
    """Turns ``POST /v1/verify`` payloads into jobs on a
    :class:`VerificationService`.

    Dataset bundles (and the verification methods over them) are built
    lazily on first use and share the service's ledger, so ``/v1/stats``
    accounts for every request's spend in one place. All jobs against a
    dataset use one fixed single-try schedule.
    """

    def __init__(
        self,
        service: VerificationService | None = None,
        datasets: dict[str, Callable[[], DatasetBundle]] | None = None,
        seed: int = 0,
        client_wrapper: Callable | None = None,
    ) -> None:
        self.service = service if service is not None else (
            VerificationService().start()
        )
        self._builders = dict(
            datasets if datasets is not None else DEFAULT_DATASETS
        )
        self._seed = seed
        #: Optional LLM-client decorator applied to every method of a
        #: freshly built dataset system — the benchmarks use it to
        #: stack simulated model latency under the response cache.
        self._client_wrapper = client_wrapper
        self._datasets: dict[str, tuple[DatasetBundle,
                                        list[ScheduleEntry]]] = {}
        self._lock = threading.Lock()
        self._request_seq = itertools.count(1)

    @property
    def datasets(self) -> list[str]:
        return sorted(self._builders)

    def _dataset(self, name: str) -> tuple[DatasetBundle,
                                           list[ScheduleEntry]]:
        with self._lock:
            entry = self._datasets.get(name)
            if entry is None:
                bundle = self._builders[name]()
                system = build_cedar(
                    bundle, seed=self._seed,
                    config=VerifierConfig(ledger=self.service.ledger),
                )
                if self._client_wrapper is not None:
                    for method in system.methods:
                        method.client = self._client_wrapper(method.client)
                # Single-try stages: each claim's first call per method
                # runs at temperature 0 and is cacheable across
                # requests; only the few-shot sample re-pass draws at
                # the retry temperature.
                schedule = [ScheduleEntry(method, 1)
                            for method in system.methods[:3]]
                entry = (bundle, schedule)
                self._datasets[name] = entry
            return entry

    def warm(self, name: str) -> int:
        """Force-build a dataset's bundle and systems (an expensive,
        once-per-process step otherwise paid by the first submission);
        returns the document count. Lets deployments and benchmarks
        warm every worker before taking traffic."""
        if name not in self._builders:
            raise KeyError(f"unknown dataset {name!r}")
        bundle, _schedule = self._dataset(name)
        return len(bundle.documents)

    def submit(self, payload: dict) -> tuple[int, dict]:
        error = submission_error(payload, self.datasets)
        if error is not None:
            return 400, error
        bundle, schedule = self._dataset(payload.get("dataset",
                                                     "aggchecker"))
        index = payload.get("document", 0)
        if not 0 <= index < len(bundle.documents):
            return 400, {
                "error": f"document index out of range "
                         f"(0..{len(bundle.documents) - 1})",
            }
        document = clone_document(
            bundle.documents[index], f"r{next(self._request_seq):05d}"
        )
        try:
            handle = self.service.submit(
                document,
                schedule,
                client_id=str(payload.get("client_id", "default")),
                priority=payload.get("priority", 0),
                trace_context=trace_context(payload.get("trace")),
            )
        except AdmissionError as error:
            status = _REJECTION_STATUS.get(error.reason.code, 429)
            body = {"rejected": error.reason.to_dict()}
            if error.reason.code in RETRYABLE_REASONS:
                # The client should come back once the backlog (or the
                # drain) has had time to clear; scale the hint by it.
                body["retry_after_seconds"] = retry_after_seconds(
                    self.service.queue_depth
                )
            return status, body
        # The state the job was admitted in: submit only ever admits
        # into the queue, and a dispatcher may already have popped it.
        return 202, {
            "job_id": handle.job_id,
            "state": QUEUED,
            "claims": len(document.claims),
            "events_url": f"/{API_VERSION}/jobs/{handle.job_id}/events",
        }


async def job_bursts(handle: JobHandle, wait: bool,
                     timeout: float) -> AsyncIterator[list[str]]:
    """A job's events as ndjson lines, one list per burst: the backlog,
    then — with ``wait`` — whatever lands until the terminal event or
    ``timeout`` seconds from now, whichever is first.

    No thread waits on the job: its wake hook sets an event on this
    loop, and each wake-up drains everything that landed meanwhile with
    one ``events_from``. Each event is encoded once, here.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    woken = asyncio.Event()
    index = 0
    with handle.wake_hook(lambda: loop.call_soon_threadsafe(woken.set)):
        while True:
            woken.clear()
            try:
                burst = handle.events_from(index, 0)
            except TimeoutError:            # open, and nothing new yet
                burst = None
            if burst:
                index += len(burst)
                yield [event.to_json() for event in burst]
            if not wait or burst == [] or (burst and burst[-1].terminal):
                return
            if burst is None:
                try:
                    async with asyncio.timeout_at(deadline):
                        await woken.wait()
                except TimeoutError:
                    return                  # ?wait deadline: end here


class ServiceServer:
    """The single-process door: :class:`ServiceApp` behind
    :class:`HttpServer`, on an event loop of its own.

    Keeps the ``socketserver`` lifecycle the CLIs drive: the socket is
    bound on construction, so ``server_address`` is readable at once;
    ``serve_forever()`` runs the loop on the calling thread;
    ``shutdown()``, from any other thread, stops accepting and returns
    once ``serve_forever()`` has — after every request open at that
    moment was answered, so a follower still reads its terminal line;
    ``server_close()`` releases the socket and detaches the log ring.
    """

    def __init__(self, app: ServiceApp, host: str, port: int,
                 verbose: bool = False) -> None:
        self.app = app
        self.socket = socket.create_server((host, port))
        self.server_address = self.socket.getsockname()
        #: The last structured log records of every ``repro`` component
        #: in this process, served by ``GET /v1/debug/logs``.
        self.log_buffer = attach(LogRing())
        self._http = HttpServer(self, verbose)
        self._built: set[str] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop = asyncio.Event()
        self._closing = False
        self._served = threading.Event()

    def serve_forever(self) -> None:
        try:
            asyncio.run(self._serve())
        finally:
            self._served.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self._http.start(sock=self.socket)
        if not self._closing:
            await self._stop.wait()
        await self._http.close()

    def shutdown(self) -> None:
        self._closing = True          # seen by a loop still starting up
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):  # the loop has ended
                self._loop.call_soon_threadsafe(self._stop.set)
        self._served.wait()

    def server_close(self) -> None:
        self.socket.close()
        detach(self.log_buffer)

    # -- routes, awaited by HttpServer ---------------------------------------

    async def submit(self, payload: dict) -> tuple[int, dict]:
        name = payload.get("dataset", "aggchecker")
        if (isinstance(name, str) and name not in self._built
                and name in self.app.datasets):
            # A first build takes seconds: off the loop, as the router
            # builds its routing keys. Later submits run inline.
            await asyncio.get_running_loop().run_in_executor(
                None, self.app.warm, name,
            )
            self._built.add(name)
        return self.app.submit(payload)

    async def health(self) -> tuple[int, dict]:
        """Liveness: the process is up and answering (draining or not)."""
        return 200, {"status": "ok",
                     "draining": self.app.service.draining}

    async def ready(self) -> tuple[int, dict]:
        """Readiness: 200 only while new submissions are accepted.

        A draining service stays *live* (``/v1/healthz`` keeps
        returning 200 so orchestrators don't kill it mid-flush) but
        flips ``/v1/readyz`` to 503 so load balancers stop sending it
        work.
        """
        service = self.app.service
        if service.ready:
            return 200, {"ready": True, "draining": False}
        return 503, {
            "ready": False, "draining": service.draining,
            "retry_after_seconds": retry_after_seconds(service.queue_depth),
        }

    async def stats(self) -> tuple[int, dict]:
        return 200, self.app.service.stats().to_dict()

    async def job_summary(self, job_id: str) -> tuple[int, dict]:
        handle = self.app.service.job(job_id)
        if handle is None:
            return 404, {"error": f"no job {job_id!r}"}
        body = {"job_id": job_id, "state": handle.state,
                "events": len(handle.events_snapshot())}
        if handle.error:
            body["error"] = handle.error
        return 200, body

    async def job_trace(self, job_id: str,
                        _fmt: str = "") -> tuple[int, dict]:
        """The job's span forest as Chrome trace-event JSON."""
        handle = self.app.service.job(job_id)
        if handle is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, to_chrome_trace(handle.spans(), process_name=job_id)

    async def job_events(self, job_id: str, wait: bool,
                         timeout: float) -> AsyncIterator[list[str]] | None:
        handle = self.app.service.job(job_id)
        if handle is None:
            return None
        return job_bursts(handle, wait, timeout)


def make_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    app: ServiceApp | None = None,
    verbose: bool = False,
) -> ServiceServer:
    """Build (but don't start) the HTTP server; ``port=0`` picks a free
    port — read it back from ``server.server_address``."""
    return ServiceServer(app if app is not None else ServiceApp(),
                         host, port, verbose)


# -- the one asyncio HTTP/1.1 implementation ---------------------------------

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 409: "Conflict",
            413: "Request Entity Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

_MAX_HEADER_LINES = 100

_PROMETHEUS_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class HttpServer:
    """Parses requests, awaits the backend's route methods, writes the
    replies — for :class:`ServiceServer` and the cluster router alike.

    A backend provides the coroutines ``submit``, ``health``,
    ``ready``, ``stats``, ``job_summary``, ``job_trace`` and
    ``job_events``, plus a ``log_buffer``; ``/v1/metrics`` is its
    ``stats`` body rendered by :func:`~repro.obs.export.to_prometheus`.
    """

    def __init__(self, backend, verbose: bool = False) -> None:
        self.backend = backend
        self.verbose = verbose
        self._server: asyncio.AbstractServer | None = None
        #: Connection task -> its writer while it waits for a request,
        #: None while it answers one.
        self._clients: dict[asyncio.Task,
                            asyncio.StreamWriter | None] = {}
        self._closing = False

    async def start(self, host: str | None = None, port: int | None = None,
                    sock: socket.socket | None = None) -> tuple[str, int]:
        """Listen on ``host:port`` or an already-bound ``sock``; returns
        the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_client, host, port, sock=sock,
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Stop accepting and hang up idle connections. A request in
        progress is answered first: a follower reads on to its terminal
        line or its ``?wait`` deadline."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer in self._clients.values():
            if writer is not None:
                writer.close()      # the waiting read sees EOF
        await asyncio.gather(*self._clients, return_exceptions=True)

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._clients[task] = writer
        # asyncio turns Nagle off itself only when the listener's
        # protocol is IPPROTO_TCP, which socket.create_server's is not;
        # replies are small and complete, nothing is worth gathering.
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while not self._closing:
                try:
                    request = await _read_http_request(reader)
                except BodyRejected as error:
                    # The body stays unread, so the connection cannot
                    # carry another request: say so and hang up.
                    await _send_json(writer, error.status,
                                     {"error": str(error)}, close=True)
                    return
                if request is None:
                    return
                method, target, headers, body = request
                self._clients[task] = None
                status = await self._route(method, target, body, writer)
                self._clients[task] = writer
                if self.verbose:
                    print(f"{writer.get_extra_info('peername')[0]} - - "
                          f"[{time.strftime('%d/%b/%Y %H:%M:%S')}] "
                          f'"{method} {target}" {status}',
                          file=sys.stderr, flush=True)
                if headers.get("connection", "").lower() == "close":
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-request/stream
        finally:
            del self._clients[task]
            writer.close()

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter) -> int:
        """Answer one request; returns the status sent."""
        backend = self.backend
        path, _, query_string = target.partition("?")
        query = dict(parse_qsl(query_string))
        version, *parts = [part for part in path.split("/") if part] or [""]
        if version != API_VERSION:
            return await _send_json(writer, 404, {
                "error": f"no route for {method} {path}: the API lives "
                         f"under /{API_VERSION}/",
                "supported": [API_VERSION],
            })
        jobs = len(parts) in (2, 3) and parts[0] == "jobs"
        if method == "POST" and parts == ["verify"]:
            try:
                payload = json.loads(body or b"{}")
                if not isinstance(payload, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as error:
                reply = 400, {"error": f"bad request body: {error}"}
            else:
                reply = await backend.submit(payload)
        elif method != "GET":
            reply = 404, {"error": f"no route for {method} {path}"}
        elif parts == ["healthz"]:
            reply = await backend.health()
        elif parts == ["readyz"]:
            reply = await backend.ready()
        elif parts == ["stats"]:
            reply = await backend.stats()
        elif parts == ["metrics"]:
            _status, stats = await backend.stats()
            return await _send_text(writer, 200, to_prometheus(stats),
                                    _PROMETHEUS_TEXT)
        elif parts == ["debug", "logs"]:
            count = _non_negative(query.get("n", "100"), int)
            if count is None:
                reply = 400, {"error": "n must be a non-negative integer"}
            else:
                return await _send_text(
                    writer, 200, backend.log_buffer.to_ndjson(count),
                    "application/x-ndjson",
                )
        elif jobs and len(parts) == 2:
            reply = await backend.job_summary(parts[1])
        elif jobs and parts[2] == "trace":
            reply = await backend.job_trace(parts[1],
                                            query.get("format", ""))
        elif jobs and parts[2] == "events":
            timeout = _non_negative(query.get("timeout", "30"), float)
            if timeout is None:
                reply = 400, {"error": "timeout must be a non-negative "
                                       "number"}
            else:
                wait = query.get("wait", "0") not in ("0", "", "false")
                stream = await backend.job_events(parts[1], wait, timeout)
                if stream is not None:
                    return await _send_ndjson(writer, stream)
                reply = 404, {"error": f"no job {parts[1]!r}"}
        else:
            reply = 404, {"error": f"no route for {method} {path}"}
        return await _send_json(writer, *reply)


def _non_negative(raw: str, kind: type) -> int | float | None:
    """``kind(raw)`` when that is a finite number >= 0, else None."""
    try:
        value = kind(raw)
    except ValueError:
        return None
    return value if 0 <= value < math.inf else None   # NaN fails both


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """One request as (method, target, headers, body); None on EOF or
    garbage (the connection then closes).

    Raises :class:`BodyRejected` for a hostile ``Content-Length``,
    before reading any of the body."""
    line = await reader.readline()
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
    length = declared_body_length(headers.get("content-length"))
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _send_text(writer: asyncio.StreamWriter, status: int, body: str,
                     content_type: str, extra: Iterable[str] = ()) -> int:
    """Head and body in one write: sent apart, the second small
    segment can sit behind the client's delayed ACK."""
    payload = body.encode()
    head = "\r\n".join([
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        *extra,
    ])
    writer.write(head.encode() + b"\r\n\r\n" + payload)
    await writer.drain()
    return status


async def _send_json(writer: asyncio.StreamWriter, status: int, body: dict,
                     close: bool = False) -> int:
    extra = []
    # Structured rejections advertise when to come back; the header
    # mirrors the body's retry_after_seconds for plain HTTP clients.
    if "retry_after_seconds" in body:
        extra.append(f"Retry-After: {int(body['retry_after_seconds'])}")
    if close:
        extra.append("Connection: close")
    return await _send_text(writer, status, json.dumps(body, sort_keys=True),
                            "application/json", extra)


async def _send_ndjson(writer: asyncio.StreamWriter,
                       stream: AsyncIterator[list[str]]) -> int:
    """A chunked ndjson stream, one chunk (and one write) per burst; the
    head leaves with the first. Closing the stream on the way out —
    a client that hung up included — unhooks it from its job."""
    head = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")
    async with contextlib.aclosing(stream):
        async for lines in stream:
            chunk = ("\n".join(lines) + "\n").encode()
            writer.write(head + f"{len(chunk):x}\r\n".encode()
                         + chunk + b"\r\n")
            head = b""
            await writer.drain()
    writer.write(head + b"0\r\n\r\n")
    await writer.drain()
    return 200
