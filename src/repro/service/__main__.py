"""CLI entry point: ``python -m repro.service`` (or ``make serve``).

Starts the verification service behind the asyncio HTTP front end and
blocks until signalled. SIGTERM and SIGINT (Ctrl-C) both trigger a
graceful drain — the server stops accepting, every request open at
that moment is answered (a follower reads its terminal line), every
accepted job is flushed, then the process exits; a second signal kills
it the blunt way. ``GET /v1/readyz`` flips to 503 the moment the drain
starts, so a load balancer in front stops routing first.
"""

from __future__ import annotations

import argparse
import logging
import sys
import threading

from repro.obs.logs import attach, detach

from .http import ServiceApp, make_server
from .service import ServiceConfig, VerificationService
from .signals import install_drain_handlers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve CEDAR claim verification over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000,
                        help="0 picks a free port")
    parser.add_argument("--workers", type=int, default=ServiceConfig.workers,
                        help="model calls in flight across all jobs")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="bounded queue depth (admission limit)")
    parser.add_argument("--per-client", type=int, default=8,
                        help="in-flight job cap per client_id")
    # Inert: parsed only because bench/serve.py still reads these two
    # dests; ROADMAP 5(d) removes them.
    parser.add_argument("--batch-window", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-batch", type=int, default=8,
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="shared response cache entries (0 disables)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log-file", default=None, metavar="PATH",
                        help="append structured ndjson logs to PATH")
    parser.add_argument("--verbose", action="store_true",
                        help="log HTTP requests")
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    log_file = (attach(logging.FileHandler(arguments.log_file,
                                           encoding="utf-8"))
                if arguments.log_file else None)
    service = VerificationService(ServiceConfig(
        max_queue_depth=arguments.queue_depth,
        per_client_limit=arguments.per_client,
        workers=arguments.workers,
        cache_size=arguments.cache_size,
    ))
    app = ServiceApp(service, seed=arguments.seed)
    server = make_server(arguments.host, arguments.port, app,
                         verbose=arguments.verbose)
    # Started once the door's log ring is attached, so the ring and
    # --log-file hold the same lines from the first one on.
    service.start()
    host, port = server.server_address[:2]

    def begin_drain(signum: int) -> None:
        # Refuse new work immediately (readyz goes 503, submits get
        # `draining` + Retry-After), then stop the accept loop from a
        # side thread: shutdown() blocks until serve_forever, which runs
        # on this thread, exits, so calling it here would deadlock.
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    install_drain_handlers(begin_drain)
    print(f"serving CEDAR verification on http://{host}:{port}  "
          "(POST /v1/verify, GET /v1/stats; SIGTERM/Ctrl-C drains and exits)")
    try:
        server.serve_forever()
    finally:
        print("draining accepted jobs …")
        server.server_close()
        service.shutdown(drain=True)
        if log_file is not None:
            detach(log_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
