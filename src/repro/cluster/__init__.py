"""Sharded multi-worker cluster for the verification service.

``python -m repro.cluster --workers N`` runs the single-process
service's big sibling: an asyncio router front end that consistent-
hashes jobs onto N worker processes by database content fingerprint,
with admission control lifted to the router, per-job event fan-out to
any number of ndjson streams, and a supervisor that health-checks
spawns, drains gracefully, and respawns crashed workers while turning
their open jobs into structured ``worker_lost`` terminal events.

See ``docs/cluster.md`` for the architecture.

Exports resolve lazily (PEP 562): workers are spawned with
``python -m repro.cluster.worker``, and an eager ``from .worker import``
here would make runpy import the module twice per spawn.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "MAX_FRAME_BYTES": ".protocol",
    "ProtocolError": ".protocol",
    "encode_frame": ".protocol",
    "read_frame": ".protocol",
    "read_frame_async": ".protocol",
    "DEFAULT_REPLICAS": ".ring",
    "HashRing": ".ring",
    "REASON_WORKER_LOST": ".router",
    "TERMINAL_KINDS": ".router",
    "ClusterConfig": ".router",
    "ClusterRouter": ".router",
    "JobRecord": ".router",
    "RoutingTable": ".router",
    "WorkerGone": ".supervisor",
    "WorkerLink": ".supervisor",
    "WorkerProcess": ".supervisor",
    "WorkerSupervisor": ".supervisor",
    "DATASET_PROFILES": ".worker",
    "WorkerServer": ".worker",
    "dataset_builders": ".worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
