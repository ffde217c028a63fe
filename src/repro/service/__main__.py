"""CLI entry point: ``python -m repro.service`` (or ``make serve``).

Starts the verification service behind the stdlib HTTP front end and
blocks until signalled. SIGTERM and SIGINT (Ctrl-C) both trigger a
graceful drain — the server stops accepting, every accepted job is
flushed, then the process exits; a second signal kills it the blunt
way. ``GET /readyz`` flips to 503 the moment the drain starts, so a
load balancer in front stops routing first.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.obs.logging import FileSink, add_sink

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
    parser.add_argument("--workers", type=int, default=4,
                        help="claim threads per dispatcher")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="bounded queue depth (admission limit)")
    parser.add_argument("--per-client", type=int, default=8,
                        help="in-flight job cap per client_id")
    parser.add_argument("--batch-window", type=float,
                        default=ServiceConfig.batch_window,
                        help="seconds to linger before coalescing queued "
                             "jobs (0: run at once, batch what is waiting)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="jobs coalesced into one batch")
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
    if arguments.log_file:
        add_sink(FileSink(arguments.log_file))
    service = VerificationService(ServiceConfig(
        max_queue_depth=arguments.queue_depth,
        per_client_limit=arguments.per_client,
        max_batch_jobs=arguments.max_batch,
        batch_window=arguments.batch_window,
        workers=arguments.workers,
        cache_size=arguments.cache_size,
    )).start()
    app = ServiceApp(service, seed=arguments.seed)
    server = make_server(arguments.host, arguments.port, app,
                         verbose=arguments.verbose)
    host, port = server.server_address[:2]

    def begin_drain(signum: int) -> None:
        # Refuse new work immediately (readyz goes 503, submits get
        # `draining` + Retry-After), then stop the accept loop from a
        # side thread: BaseServer.shutdown() blocks until serve_forever
        # exits, so calling it in the handler frame would deadlock.
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
