"""A serving ledger holds the same memory at job 200 as at job 20.

The service prices each job by capturing its calls and folds the
capture into running totals; nothing of a finished job's calls stays in
the ledger. The caches are off, so every job pays for every call again.
"""

import gc
import itertools
import sys
import tracemalloc
import types

from repro.core import ScheduleEntry, VerifierConfig
from repro.experiments import build_cedar
from repro.llm import CostLedger
from repro.llm import ledger as ledger_module
from repro.service import ServiceConfig, VerificationService, clone_document
from repro.service.http import DEFAULT_DATASETS

#: A few running totals change size as they grow: an int from 256 up is
#: allocated rather than cached, and one past 2**30 takes another word.
#: A retained per-call record adds hundreds of bytes per call, i.e.
#: hundreds of KiB over the 180 jobs between the two readings.
SLACK_BYTES = 256


def ledger_bytes(ledger: CostLedger) -> int:
    """Bytes the ledger holds that were allocated in ``llm/ledger.py``.

    Walks what is reachable from the ledger (classes, modules and
    functions aside), so a value the ledger handed out and a caller
    kept — a job's spend figures, say — is the caller's, not the
    ledger's.
    """
    held = 0
    seen = set()
    stack = [ledger]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(
                item, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(item))
        origin = tracemalloc.get_object_traceback(item)
        if origin is not None and origin[0].filename == ledger_module.__file__:
            held += sys.getsizeof(item)
        stack.extend(gc.get_referents(item))
    return held


def test_held_ledger_memory_does_not_grow_with_jobs():
    bundle = DEFAULT_DATASETS["aggchecker"]()
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(
        ledger=ledger, cache_size=0, sql_cache_size=0,
        max_queue_depth=64, per_client_limit=64,
    )).start()
    system = build_cedar(bundle, seed=0,
                         config=VerifierConfig(ledger=ledger))
    schedule = [ScheduleEntry(method, 1) for method in system.methods[:3]]
    tags = itertools.count()

    def run_jobs(count):
        for index in range(count):
            document = bundle.documents[index % len(bundle.documents)]
            handle = service.submit(
                clone_document(document, f"m{next(tags)}"), schedule,
            )
            handle.result(timeout=60)
            assert handle.state == "completed", handle.error

    tracemalloc.start()
    try:
        run_jobs(20)
        calls_at_20 = ledger.totals().calls
        held_at_20 = ledger_bytes(ledger)
        run_jobs(180)
        held_at_200 = ledger_bytes(ledger)
    finally:
        tracemalloc.stop()
        service.shutdown(drain=True)
    assert ledger.totals().calls > 5 * calls_at_20 > 0
    assert abs(held_at_200 - held_at_20) <= SLACK_BYTES, (
        held_at_20, held_at_200,
    )
