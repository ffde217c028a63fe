"""Launcher for the workloads the shipped CLIs cannot serve.

``python -m repro.service`` serves 25 fixed documents. ``cold-distinct``
and ``open-llm`` need the paper's dataset mix, so this launcher makes
the same public calls as ``repro.service.__main__.main`` with the same
defaults and swaps only the dataset builders (and, for ``open-llm``,
stacks the existing simulated-latency client under the response cache).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
))

from repro.cluster.worker import latency_wrapper  # noqa: E402
from repro.datasets import (  # noqa: E402
    build_aggchecker,
    build_tabfact,
    build_wikitext,
)
from repro.service.__main__ import build_parser  # noqa: E402
from repro.service.http import ServiceApp, make_server  # noqa: E402
from repro.service.service import (  # noqa: E402
    ServiceConfig,
    VerificationService,
)
from repro.service.signals import install_drain_handlers  # noqa: E402

#: The paper's dataset sizes (Section 7.1: 56/392, 28/100, 14/50) times
#: three: 294 documents and 1,626 claims, whose model calls overflow
#: the 1,024-entry response cache several times over.
PAPER_MIX_X3 = {
    "aggchecker": lambda: build_aggchecker(document_count=168,
                                           total_claims=1176),
    "tabfact": lambda: build_tabfact(table_count=84, total_claims=300),
    "wikitext": lambda: build_wikitext(document_count=42, total_claims=150),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    parser.add_argument("--latency-scale", type=float, default=0.0,
                        help="sleep this share of each simulated model "
                             "latency (open-llm uses 0.01)")
    arguments = parser.parse_args(argv)
    service = VerificationService(ServiceConfig(
        max_queue_depth=arguments.queue_depth,
        per_client_limit=arguments.per_client,
        max_batch_jobs=arguments.max_batch,
        batch_window=arguments.batch_window,
        workers=arguments.workers,
        cache_size=arguments.cache_size,
    )).start()
    app = ServiceApp(service, datasets=PAPER_MIX_X3, seed=arguments.seed,
                     client_wrapper=latency_wrapper(arguments.latency_scale))
    # Build every bundle before the port is announced, so readiness
    # means "datasets warm" and the first job pays for nothing else.
    for name in app.datasets:
        app.warm(name)
    server = make_server(arguments.host, arguments.port, app,
                         verbose=arguments.verbose)
    host, port = server.server_address[:2]

    def begin_drain(signum: int) -> None:
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    install_drain_handlers(begin_drain)
    print(f"serving CEDAR verification on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.shutdown(drain=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
