"""``python -m repro.cluster`` — run the sharded cluster front end.

Starts N worker processes (each a full single-process service shard)
plus the asyncio router, and serves the familiar HTTP surface —
``POST /v1/verify``, ndjson event streams, ``/v1/stats``, ``/v1/metrics``,
``/v1/healthz``, ``/v1/readyz`` — on one event loop.

SIGTERM/SIGINT trigger the same graceful drain the single-process
``python -m repro.service`` performs: stop admitting, flush every
accepted job on every shard, then exit. A second signal kills.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.service.signals import install_drain_handlers

from .router import ClusterConfig, ClusterRouter
from .worker import DATASET_PROFILES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded CEDAR verification cluster "
                    "(consistent-hash router + N worker processes).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8100)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (shards)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default="default",
                        choices=sorted(DATASET_PROFILES),
                        help="dataset profile shared by router and shards")
    parser.add_argument("--per-client-limit", type=int, default=8,
                        help="open jobs per client across the cluster")
    parser.add_argument("--max-shard-inflight", type=int, default=64,
                        help="open jobs per shard before queue_full")
    parser.add_argument("--shard-threads", type=int,
                        default=ClusterConfig.shard_threads,
                        help="model calls in flight in each worker")
    parser.add_argument("--cache-db", default=None,
                        help="shared persistent L2 sqlite path (optional)")
    parser.add_argument("--latency-scale", type=float, default=0.0,
                        help="simulate per-token model latency (bench)")
    parser.add_argument("--no-respawn", action="store_true",
                        help="do not respawn crashed workers")
    parser.add_argument("--no-tracing", action="store_true",
                        help="disable distributed tracing (router spans, "
                             "trace contexts, worker span trees)")
    parser.add_argument("--log-file", default=None, metavar="PATH",
                        help="append router ndjson logs to PATH; each "
                             "worker appends to PATH.w<id>")
    return parser


async def _run(arguments: argparse.Namespace) -> int:
    router = ClusterRouter(ClusterConfig(
        workers=arguments.workers,
        seed=arguments.seed,
        profile=arguments.profile,
        per_client_limit=arguments.per_client_limit,
        max_shard_inflight=arguments.max_shard_inflight,
        shard_threads=arguments.shard_threads,
        cache_db=arguments.cache_db,
        latency_scale=arguments.latency_scale,
        respawn=not arguments.no_respawn,
        tracing=not arguments.no_tracing,
        log_file=arguments.log_file,
    ))
    loop = asyncio.get_running_loop()
    drained = asyncio.Event()

    def begin_drain(signum: int) -> None:
        loop.call_soon_threadsafe(drained.set)

    install_drain_handlers(begin_drain)
    await router.start()
    host, port = await router.serve_http(arguments.host, arguments.port)
    print(f"cluster: {arguments.workers} workers behind "
          f"http://{host}:{port}/v1/ (Ctrl-C drains)", flush=True)
    try:
        await drained.wait()
        print("cluster: draining accepted jobs ...", flush=True)
        await router.drain()
    finally:
        await router.stop()
    print("cluster: drained and stopped", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    return asyncio.run(_run(arguments))


if __name__ == "__main__":
    sys.exit(main())
