"""One cluster shard: a ``VerificationService`` behind a framed socket.

``python -m repro.cluster.worker --socket PATH --worker-id N`` runs
exactly the single-process service — same admission queue, same
dispatcher, same shard-local L1 caches and ``/v1/stats`` counters — but
fronted by the length-prefixed JSON protocol on a Unix socket instead
of HTTP. The router is its only client; every op maps onto the same
:class:`~repro.service.http.ServiceApp` routes the HTTP front end uses,
so a routed job executes byte-identically to a directly-submitted one.

Shard-local vs shared state: the LLM and SQL caches, verifiers, ledger,
and stats live in this process (shared-nothing between shards); an
optional ``--cache-db`` adds the one deliberately *shared* tier, the
sqlite L2 file, which is multi-process safe and keyed by database
content fingerprints — the same fingerprints the router shards on.

Ops (see :mod:`repro.cluster.protocol` for framing):

``hello``      handshake; the supervisor's spawn health check.
``submit``     ``{"payload": {...}}`` -> ``{"status", "body"}``
               (the ServiceApp route result, HTTP status included).
``subscribe``  ``{"job_id", "public_id"}`` -> one ``{"lines", "last",
               "end"}`` frame per burst of job events: the final ndjson
               lines (``job_id`` rewritten to the router's ``public_id``),
               the newest one's kind, and whether it was the terminal one.
``cancel``     ``{"job_id"}`` -> ``{"cancelled": bool}``.
``warm``       ``{"dataset"}`` -> ``{"documents": n}``; force-builds the
               dataset bundle so the first real job doesn't pay for it.
``health``     readiness probe: ``{"ready", "draining", "queue_depth"}``.
``stats``      the full ServiceStats dict for ``/v1/stats`` aggregation
               (and so for ``GET /v1/metrics``, rendered from it).
``trace``      ``{"job_id"}`` -> the job's span forest (wire form, wall
               times included) plus the trace context it was submitted
               with; the router stitches these under its own job root
               for ``GET /v1/jobs/<id>/trace``.
``drain``      graceful drain: stop accepting, flush accepted jobs,
               reply ``{"drained": true}`` when the queue is empty.
``exit``       acknowledge, then stop the process.

SIGTERM/SIGINT trigger the same drain path via the shared
:func:`~repro.service.signals.install_drain_handlers` hook.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import socket
import sys
import threading
from typing import Callable

from repro.datasets import DatasetBundle, build_aggchecker, build_tabfact
from repro.llm import LatencySimulatingClient
from repro.obs.logs import attach
from repro.service import ServiceConfig, VerificationService
from repro.service.http import DEFAULT_DATASETS, ServiceApp
from repro.service.signals import install_drain_handlers

from .protocol import ProtocolError, encode_frame, read_frame

#: Dataset sets the router and its workers must agree on (the router
#: computes routing fingerprints from the same builders the workers
#: verify against). "tiny" keeps integration tests fast.
DATASET_PROFILES: dict[str, Callable[[], dict]] = {
    "default": lambda: dict(DEFAULT_DATASETS),
    "tiny": lambda: {
        "aggchecker": lambda: build_aggchecker(document_count=2,
                                               total_claims=8),
        "tabfact": lambda: build_tabfact(table_count=2, total_claims=6),
    },
}


def dataset_builders(profile: str) -> dict[str, Callable[[], DatasetBundle]]:
    """The named profile's dataset builders (raises on unknown names)."""
    try:
        return DATASET_PROFILES[profile]()
    except KeyError:
        raise ValueError(
            f"unknown dataset profile {profile!r}; "
            f"known: {sorted(DATASET_PROFILES)}"
        ) from None


def latency_wrapper(scale: float) -> Callable | None:
    """A client wrapper simulating per-token model latency (0 = none)."""
    if scale <= 0:
        return None
    return lambda client: LatencySimulatingClient(client, scale)


#: Ops answered on the connection's reader thread: they wait for no job
#: and no other request, so a thread each would only add its spawn cost.
_INLINE_OPS = frozenset({"hello", "health", "submit"})


class WorkerServer:
    """Serves the framed protocol for one shard over a Unix socket."""

    def __init__(self, socket_path: str, app: ServiceApp,
                 worker_id: int) -> None:
        self.socket_path = socket_path
        self.app = app
        self.worker_id = worker_id
        self._stop = threading.Event()
        self._drained = threading.Event()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(socket_path)
        self._listener.bind(socket_path)
        self._listener.listen(16)

    @property
    def service(self) -> VerificationService:
        return self.app.service

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop`; one thread each."""
        try:
            while not self._stop.is_set():
                try:
                    connection, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by stop()
                threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name=f"cedar-worker-{self.worker_id}-conn",
                    daemon=True,
                ).start()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)

    def stop(self) -> None:
        self._stop.set()
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()

    def drain(self) -> None:
        """Refuse new jobs, flush accepted ones, and remember we did."""
        self.service.begin_drain()
        self.service.shutdown(drain=True)
        self._drained.set()

    # -- the protocol --------------------------------------------------------

    def _serve_connection(self, connection: socket.socket) -> None:
        stream = connection.makefile("rb")
        write_lock = threading.Lock()
        try:
            while True:
                try:
                    request = read_frame(stream)
                except ProtocolError:
                    break
                if request is None:
                    break
                if request.get("op") in _INLINE_OPS:
                    self._handle(request, connection, write_lock)
                    continue
                # An op that can block (a long subscribe, a drain) gets
                # its own thread: it must not stall the health probes
                # and submits that follow it on the connection.
                threading.Thread(
                    target=self._handle,
                    args=(request, connection, write_lock),
                    daemon=True,
                ).start()
        finally:
            with contextlib.suppress(OSError):
                connection.close()

    def _send(self, connection: socket.socket, lock: threading.Lock,
              message: dict) -> bool:
        try:
            with lock:
                connection.sendall(encode_frame(message))
            return True
        except OSError:
            return False  # router went away; subscriptions just stop

    def _handle(self, request: dict, connection: socket.socket,
                lock: threading.Lock) -> None:
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "hello":
                self._send(connection, lock, {
                    "id": request_id, "ok": True,
                    "worker": self.worker_id, "pid": os.getpid(),
                })
            elif op == "submit":
                status, body = self.app.submit(request.get("payload") or {})
                self._send(connection, lock, {
                    "id": request_id, "ok": status == 202,
                    "status": status, "body": body,
                })
            elif op == "subscribe":
                self._subscribe(request, connection, lock)
            elif op == "cancel":
                cancelled = self.service.cancel(str(request.get("job_id")))
                self._send(connection, lock, {
                    "id": request_id, "ok": True, "cancelled": cancelled,
                })
            elif op == "warm":
                documents = self.app.warm(str(request.get("dataset")))
                self._send(connection, lock, {
                    "id": request_id, "ok": True, "documents": documents,
                })
            elif op == "health":
                self._send(connection, lock, {
                    "id": request_id, "ok": True,
                    "ready": self.service.ready,
                    "draining": self.service.draining,
                    "queue_depth": self.service.queue_depth,
                })
            elif op == "stats":
                self._send(connection, lock, {
                    "id": request_id, "ok": True,
                    "stats": self.service.stats().to_dict(),
                })
            elif op == "trace":
                self._trace(request, connection, lock)
            elif op == "drain":
                self.drain()
                self._send(connection, lock, {
                    "id": request_id, "ok": True, "drained": True,
                })
            elif op == "exit":
                self._send(connection, lock, {"id": request_id, "ok": True})
                self.stop()
            else:
                self._send(connection, lock, {
                    "id": request_id, "ok": False,
                    "error": f"unknown op {op!r}",
                })
        except Exception as error:  # never let one op kill the connection
            self._send(connection, lock, {
                "id": request_id, "ok": False,
                "error": f"{type(error).__name__}: {error}",
            })

    def _trace(self, request: dict, connection: socket.socket,
               lock: threading.Lock) -> None:
        """The job's span forest in wire form (wall times included —
        the router rebases them onto its own clock when stitching)."""
        request_id = request.get("id")
        handle = self.service.job(str(request.get("job_id")))
        if handle is None:
            self._send(connection, lock, {
                "id": request_id, "ok": False,
                "error": f"no job {request.get('job_id')!r}",
            })
            return
        spans = [
            span.to_dict(str(index), include_times=True)
            for index, span in enumerate(handle.spans(), start=1)
        ]
        self._send(connection, lock, {
            "id": request_id, "ok": True, "state": handle.state,
            "spans": spans, "trace": handle.trace_context(),
        })

    def _subscribe(self, request: dict, connection: socket.socket,
                   lock: threading.Lock) -> None:
        request_id = request.get("id")
        handle = self.service.job(str(request.get("job_id")))
        if handle is None:
            self._send(connection, lock, {
                "id": request_id, "ok": False,
                "error": f"no job {request.get('job_id')!r}",
            })
            return
        public_id = str(request.get("public_id") or handle.job_id)
        for burst in handle.bursts():
            # Encoded once, here, into the lines clients read: the
            # router forwards them without looking inside.
            lines = [json.dumps({**event.to_dict(), "job_id": public_id},
                                sort_keys=True) for event in burst]
            if not self._send(connection, lock, {
                "id": request_id, "lines": lines,
                "last": burst[-1].kind, "end": burst[-1].terminal,
            }):
                return


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="One CEDAR cluster shard (spawned by the router).",
    )
    parser.add_argument("--socket", required=True,
                        help="unix socket path to serve the protocol on")
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default="default",
                        choices=sorted(DATASET_PROFILES))
    parser.add_argument("--workers", type=int, default=ServiceConfig.workers,
                        help="model calls in flight across all jobs")
    parser.add_argument("--cache-db", default=None,
                        help="shared persistent L2 sqlite path (optional)")
    parser.add_argument("--latency-scale", type=float, default=0.0,
                        help="simulate per-token model latency (bench)")
    parser.add_argument("--no-tracing", action="store_true",
                        help="disable per-job span trees (bench baseline)")
    parser.add_argument("--log-file", default=None, metavar="PATH",
                        help="append structured ndjson logs to PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.log_file:
        # Left attached until the process exits; the handler flushes
        # every line, so nothing is lost when it does.
        attach(logging.FileHandler(arguments.log_file, encoding="utf-8"))
    service = VerificationService(ServiceConfig(
        # Fairness is enforced at the router across all shards; a
        # shard-local cap would double-count clients that hash onto
        # few shards, so it is effectively disabled here.
        per_client_limit=1_000_000,
        workers=arguments.workers,
        tracing=not arguments.no_tracing,
        cache_db=arguments.cache_db or None,
    )).start()
    app = ServiceApp(
        service,
        datasets=dataset_builders(arguments.profile),
        seed=arguments.seed,
        client_wrapper=latency_wrapper(arguments.latency_scale),
    )
    server = WorkerServer(arguments.socket, app, arguments.worker_id)

    def begin_drain(signum: int) -> None:
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    def _drain_and_stop() -> None:
        server.drain()
        server.stop()

    install_drain_handlers(begin_drain)
    server.serve_forever()
    # A protocol-initiated exit still owes the service a drain.
    if not server._drained.is_set():
        service.shutdown(drain=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
