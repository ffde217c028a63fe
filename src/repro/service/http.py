"""Stdlib HTTP front end for the verification service.

``python -m repro.service`` serves these endpoints, mounted under the
versioned ``/v1/`` prefix:

* ``POST /v1/verify`` — body ``{"dataset": "tabfact", "document": 0}``
  (optional ``"client_id"``, ``"priority"``). Clones the dataset
  document under a request-unique tag and submits it; replies ``202``
  with the job id, or a structured rejection: ``429`` (queue full /
  client limit), ``503`` (draining), ``409`` (claim-id conflict). A
  ``Content-Length`` that is not a non-negative integer gets ``400``,
  one above 1 MiB ``413``; either way the body is never read and the
  connection closes.
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
* ``GET /v1/stats`` — queue depth, batch sizes, cache hit rate (L1 and
  persistent L2 tiers when configured), SQL-engine counters (plan
  cache, result cache, join strategies), ledger spend (including
  cumulative retry backoff), and the latency histogram.
* ``GET /v1/metrics`` — the same numbers in Prometheus text exposition
  format, ready for a scrape config.
* ``GET /v1/telemetry`` — rolling-window rates (jobs, retries, cache
  hit rates, per-method spend) from the service's
  :class:`~repro.obs.telemetry.TelemetryWindow`.
* ``GET /v1/debug/logs?n=`` — the last ``n`` structured log records as
  ndjson, straight out of the process ring buffer
  (docs/observability.md "Structured logs").

The legacy unprefixed paths (``POST /verify``, ``GET /stats``, ...)
keep working as aliases but answer with a ``Deprecation: true``
response header; an unknown version prefix (``/v2/...``) is rejected
with a structured 404 naming the supported versions.

Every request against a dataset shares one service-wide response cache
and ledger, and jobs arriving close together coalesce into one verifier
batch — the ``batches.mean_size`` stat shows it happening. The app is
deliberately framework-free: ``ThreadingHTTPServer`` plus hand-rolled
routing is all a demo-scale service needs, and it keeps the repo
dependency-light.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterator
from urllib.parse import parse_qs, urlparse

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import (
    DatasetBundle,
    build_aggchecker,
    build_tabfact,
    build_wikitext,
)
from repro.experiments import build_cedar
from repro.obs.export import to_chrome_trace, to_prometheus
from repro.obs.logging import RingBufferSink, add_sink

from .events import JobEvent
from .queue import (
    REASON_CLIENT_LIMIT,
    REASON_CONFLICT,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    RETRYABLE_REASONS,
    AdmissionError,
    retry_after_seconds,
)
from .service import ServiceConfig, VerificationService, clone_document

#: The datasets served by default — also the cluster workers' default
#: profile, so the router and its shards agree on document identity.
DEFAULT_DATASETS: dict[str, Callable[[], DatasetBundle]] = {
    "aggchecker": lambda: build_aggchecker(document_count=12,
                                           total_claims=72),
    "tabfact": lambda: build_tabfact(table_count=8, total_claims=28),
    "wikitext": lambda: build_wikitext(document_count=5, total_claims=18),
}

#: The one API version this build serves; bump alongside breaking
#: route changes and keep the old prefix routed during a deprecation
#: window.
API_VERSION = "v1"

_VERSION_PART = re.compile(r"v\d+")

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


class ServiceApp:
    """Routes requests onto a :class:`VerificationService`.

    Dataset bundles (and the verification methods over them) are built
    lazily on first use and share the service's ledger, so ``/stats``
    accounts for every request's spend in one place. All jobs against a
    dataset use one fixed single-try schedule — identical schedules are
    what makes cross-request batching possible.
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
        #: The last 512 structured log records, served by
        #: ``GET /v1/debug/logs`` (process-global sink: records from
        #: every component land here, not just the HTTP layer's).
        self.log_buffer = RingBufferSink(512)
        add_sink(self.log_buffer)

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
                # Single-try stages: deterministic (temperature 0
                # everywhere) and maximally cacheable across requests.
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

    # -- routes --------------------------------------------------------------

    def submit(self, payload: dict) -> tuple[int, dict]:
        name = payload.get("dataset", "aggchecker")
        if name not in self._builders:
            return 400, {"error": f"unknown dataset {name!r}",
                         "datasets": sorted(self._builders)}
        index = payload.get("document", 0)
        if not isinstance(index, int):
            return 400, {"error": "document must be an integer index"}
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            return 400, {"error": "priority must be an integer"}
        bundle, schedule = self._dataset(name)
        if not 0 <= index < len(bundle.documents):
            return 400, {
                "error": f"document index out of range "
                         f"(0..{len(bundle.documents) - 1})",
            }
        document = clone_document(
            bundle.documents[index], f"r{next(self._request_seq):05d}"
        )
        # A routed submission carries its upstream trace context (see
        # cluster/protocol.py); a malformed one is dropped, never fatal.
        trace = payload.get("trace")
        if not (isinstance(trace, dict)
                and isinstance(trace.get("trace_id"), str)):
            trace = None
        try:
            handle = self.service.submit(
                document,
                schedule,
                client_id=str(payload.get("client_id", "default")),
                priority=priority,
                trace_context=trace,
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
        return 202, {
            "job_id": handle.job_id,
            "state": handle.state,
            "claims": len(document.claims),
            "events_url": f"/{API_VERSION}/jobs/{handle.job_id}/events",
        }

    def job_summary(self, job_id: str) -> tuple[int, dict]:
        handle = self.service.job(job_id)
        if handle is None:
            return 404, {"error": f"no job {job_id!r}"}
        body = {"job_id": job_id, "state": handle.state,
                "events": len(handle.events_snapshot())}
        if handle.error:
            body["error"] = handle.error
        return 200, body

    def job_events(
        self, job_id: str, wait: bool, timeout: float
    ) -> Iterator[JobEvent] | None:
        """The job's events — replayed, or live until the terminal one
        or until ``timeout`` seconds from now, whichever is first (one
        deadline for the whole stream, as on the cluster router)."""
        handle = self.service.job(job_id)
        if handle is None:
            return None
        if wait:
            return itertools.chain.from_iterable(
                handle.bursts(deadline=time.monotonic() + timeout)
            )
        return iter(handle.events_snapshot())

    def job_trace(self, job_id: str) -> tuple[int, dict]:
        """The job's span forest as Chrome trace-event JSON."""
        handle = self.service.job(job_id)
        if handle is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, to_chrome_trace(handle.spans(), process_name=job_id)

    def health(self) -> tuple[int, dict]:
        """Liveness: the process is up and answering (draining or not)."""
        return 200, {"status": "ok", "draining": self.service.draining}

    def ready(self) -> tuple[int, dict]:
        """Readiness: 200 only while new submissions are accepted.

        A draining service stays *live* (``/healthz`` keeps returning
        200 so orchestrators don't kill it mid-flush) but flips
        ``/readyz`` to 503 so load balancers stop sending it work.
        """
        if self.service.ready:
            return 200, {"ready": True, "draining": False}
        return 503, {"ready": False,
                     "draining": self.service.draining}

    def stats(self) -> tuple[int, dict]:
        return 200, self.service.stats().to_dict()

    def metrics(self) -> str:
        """The service registry in Prometheus text exposition format."""
        return to_prometheus(self.service.metrics)

    def telemetry(self) -> tuple[int, dict]:
        """The rolling telemetry window's current snapshot."""
        return 200, self.service.telemetry.snapshot()

    def debug_logs(self, n: int | None = None) -> str:
        """The last ``n`` structured log records as ndjson."""
        return self.log_buffer.to_ndjson(n)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Thin adapter from HTTP to :class:`ServiceApp` routes."""

    app: ServiceApp  # injected by make_server
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: replies and ndjson events
    #: are small and complete, so there is nothing for Nagle to gather.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _extra_headers(self) -> None:
        # Legacy unprefixed paths still work, but every response from
        # one carries the deprecation signal so clients can migrate on
        # their own schedule (draft-ietf-httpapi-deprecation-header).
        if getattr(self, "_legacy_path", False):
            self.send_header("Deprecation", "true")

    def _route_parts(self) -> list[str] | None:
        """Path segments with the version prefix resolved.

        Returns the post-prefix segments for ``/v1/...``, the raw
        segments for legacy unprefixed paths (flagging the response as
        deprecated), or ``None`` after answering an unsupported
        ``/v<k>/`` prefix with a structured 404.
        """
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        self._legacy_path = not (parts and _VERSION_PART.fullmatch(parts[0]))
        if self._legacy_path:
            return parts
        if parts[0] != API_VERSION:
            self._send_json(404, {
                "error": f"unknown API version {parts[0]!r}",
                "supported": [API_VERSION],
            })
            return None
        return parts[1:]

    def _write(self, data: bytes) -> None:
        self.wfile.write(data)
        self.wfile.flush()

    def _end_headers_with(self, payload: bytes) -> None:
        """``end_headers()``, but the head leaves with ``payload`` as one
        write: sent apart, the second small segment sits behind the
        client's delayed ACK (~40 ms on Linux loopback)."""
        self._headers_buffer.append(b"\r\n")
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        self._write(head + payload)

    def _send_json(self, status: int, body: dict,
                   headers: dict[str, str] | None = None) -> None:
        payload = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        # Structured rejections advertise when to come back; the header
        # mirrors the body's retry_after_seconds for plain HTTP clients.
        if "retry_after_seconds" in body:
            self.send_header("Retry-After",
                             str(int(body["retry_after_seconds"])))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._extra_headers()
        self._end_headers_with(payload)

    def _send_text(self, status: int, body: str,
                   content_type: str) -> None:
        payload = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self._extra_headers()
        self._end_headers_with(payload)

    def _send_ndjson(self, events: Iterator[JobEvent]) -> None:
        # Length unknown up front (events may still be landing), so the
        # stream is chunked: one chunk, one write, one flush per event.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self._extra_headers()
        self._end_headers_with(b"")
        try:
            for event in events:
                line = (event.to_json() + "\n").encode()
                self._write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        except TimeoutError:
            pass  # ?wait deadline hit: end the stream where it stands
        self._write(b"0\r\n\r\n")

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server's casing)
        url = urlparse(self.path)
        parts = self._route_parts()
        if parts is None:
            return
        if parts == ["healthz"]:
            self._send_json(*self.app.health())
        elif parts == ["readyz"]:
            status, body = self.app.ready()
            if status != 200:
                body["retry_after_seconds"] = retry_after_seconds(
                    self.app.service.queue_depth
                )
            self._send_json(status, body)
        elif parts == ["stats"]:
            self._send_json(*self.app.stats())
        elif parts == ["metrics"]:
            self._send_text(
                200, self.app.metrics(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif parts == ["telemetry"]:
            self._send_json(*self.app.telemetry())
        elif parts == ["debug", "logs"]:
            query = parse_qs(url.query)
            try:
                n = int(query.get("n", ["100"])[0])
                if n < 0:
                    raise ValueError
            except ValueError:
                self._send_json(
                    400, {"error": "n must be a non-negative integer"}
                )
                return
            self._send_text(200, self.app.debug_logs(n),
                            "application/x-ndjson")
        elif len(parts) == 2 and parts[0] == "jobs":
            self._send_json(*self.app.job_summary(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            self._send_json(*self.app.job_trace(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            query = parse_qs(url.query)
            wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
            try:
                timeout = float(query.get("timeout", ["30"])[0])
                if not math.isfinite(timeout) or timeout < 0:
                    raise ValueError
            except ValueError:
                self._send_json(
                    400,
                    {"error": "timeout must be a non-negative number"},
                )
                return
            events = self.app.job_events(parts[1], wait, timeout)
            if events is None:
                self._send_json(404, {"error": f"no job {parts[1]!r}"})
            else:
                self._send_ndjson(events)
        else:
            self._send_json(404, {"error": f"no route for {url.path}"})

    def do_POST(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        parts = self._route_parts()
        if parts is None:
            return
        if parts != ["verify"]:
            self._send_json(404, {"error": f"no route for {url.path}"})
            return
        try:
            length = declared_body_length(self.headers.get("Content-Length"))
        except BodyRejected as error:
            # The body stays unread, so the connection cannot carry
            # another request: say so and close it.
            self._send_json(error.status, {"error": str(error)},
                            headers={"Connection": "close"})
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"bad request body: {error}"})
            return
        self._send_json(*self.app.submit(payload))


def make_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    app: ServiceApp | None = None,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build (but don't start) the HTTP server; ``port=0`` picks a free
    port — read it back from ``server.server_address``."""
    app = app if app is not None else ServiceApp()
    handler = type("BoundHandler", (ServiceRequestHandler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.verbose = verbose  # type: ignore[attr-defined]
    server.app = app  # type: ignore[attr-defined]
    return server
