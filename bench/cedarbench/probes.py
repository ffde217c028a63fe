"""Layer probes: each layer's public functions, timed in this process.

The inputs are real: SQL strings from the traced set's ``claim_verdict``
events, its claim sentences, one of its event lines, and the prompts the
inline verification of the same documents produced. Every call runs
inside its own bench span, so the probes show up in the workload's
``trace-<workload>.json`` next to the jobs.

Order matters once: ``sqlengine.execute_cold_us`` must be the first
thing to touch a document's tables, so it runs before anything else
that takes the database.
"""

from __future__ import annotations

import io
import time
from typing import Callable, Sequence

from . import measure, spans
from .client import JobRecord
from .golden import dataset_builders

#: Inline verification is the slow probe; this many documents bound it.
MAX_INLINE_DOCUMENTS = 25


def _timed(log: spans.SpanLog, name: str, kind: str,
           call: Callable[[], object]) -> float:
    """Run ``call`` inside a probe span; seconds it took."""
    with log.probe(name, kind):
        started = time.perf_counter()
        call()
        return time.perf_counter() - started


def _p50_us(samples: Sequence[float]) -> tuple[float, str]:
    return 1e6 * measure.median(samples), "us"


def run_probes(profile: tuple, records: Sequence[JobRecord],
               log: spans.SpanLog) -> dict:
    """Every probe metric (name -> (value, unit)) for one workload."""
    builders = dataset_builders(profile)      # puts src/ on sys.path
    import repro
    from repro.agents import install_agent_policy
    from repro.cache import TieredCache
    from repro.cluster.protocol import encode_frame, read_frame
    from repro.core import ScheduleEntry
    from repro.embeddings import text_similarity
    from repro.experiments import build_cedar
    from repro.llm import SimulatedLLM
    from repro.llm.base import DelegatingLLMClient
    from repro.llm.tokenizer import count_tokens
    from repro.service import clone_document
    from repro.sqlengine import Engine, analyze_sql, parse_select

    done = [r for r in records if r.done]
    metrics: dict = {}

    # -- datasets ------------------------------------------------------------
    bundles = {}
    build_seconds = 0.0
    for name in sorted({r.plan.dataset for r in done}):
        build_seconds += _timed(
            log, f"build {name}", "datasets",
            lambda name=name: bundles.__setitem__(name, builders[name]()))
    built = sum(len(bundle.documents) for bundle in bundles.values())
    metrics["datasets.build_ms_per_doc"] = (
        1e3 * build_seconds / max(1, built), "ms")

    # One entry per distinct document of the traced set, first seen.
    by_document: dict[tuple[str, int], JobRecord] = {}
    for record in done:
        by_document.setdefault(
            (record.plan.dataset, record.plan.document), record)

    # -- sqlengine -----------------------------------------------------------
    cold, warm, naive, parse, analyze = [], [], [], [], []
    for (dataset, index), record in by_document.items():
        database = bundles[dataset].documents[index].data
        # Fresh engines on purpose: the probe times first touches.
        engine = Engine(database)  # lint: allow-engine
        oracle = Engine(database, naive=True)  # lint: allow-engine
        for position, query in enumerate(record.queries):
            first = _timed(log, "execute (first)", "sqlengine",
                           lambda: engine.execute(query))
            # Only a document's first query meets untouched tables.
            (cold if position == 0 else warm).append(first)
        for query in record.queries:
            warm.append(_timed(log, "execute (again)", "sqlengine",
                               lambda: engine.execute(query)))
            naive.append(_timed(log, "execute (naive)", "sqlengine",
                                lambda: oracle.execute(query)))
            parse.append(_timed(log, "parse_select", "sqlengine",
                                lambda: parse_select(query)))
            analyze.append(_timed(log, "analyze_sql", "sqlengine",
                                  lambda: analyze_sql(query, database)))
    metrics["sqlengine.parse_us"] = _p50_us(parse)
    metrics["sqlengine.analyze_us"] = _p50_us(analyze)
    metrics["sqlengine.execute_cold_us"] = _p50_us(cold)
    metrics["sqlengine.execute_warm_us"] = _p50_us(warm)
    metrics["sqlengine.execute_naive_us"] = _p50_us(naive)

    # -- embeddings ----------------------------------------------------------
    sentences = [s for record in by_document.values()
                 for s in record.sentences]
    metrics["embeddings.similarity_us"] = _p50_us([
        _timed(log, "text_similarity", "embeddings",
               lambda: text_similarity(left, right))
        for left, right in zip(sentences, sentences[1:])
    ])

    # -- core: the same documents with no service around them ----------------
    prompts: list[tuple[str, str]] = []      # (dataset, prompt)

    class Recording(DelegatingLLMClient):
        def __init__(self, inner, dataset: str) -> None:
            super().__init__(inner)
            self.dataset = dataset

        def complete(self, prompt, temperature=0.0):
            prompts.append((self.dataset, prompt))
            return self.inner.complete(prompt, temperature)

    inline = []
    schedules = {}
    for dataset, bundle in bundles.items():
        system = build_cedar(bundle, seed=0)
        for method in system.methods:
            method.client = Recording(method.client, dataset)
        schedules[dataset] = [ScheduleEntry(method, 1)
                              for method in system.methods[:3]]
    for dataset, index in list(by_document)[:MAX_INLINE_DOCUMENTS]:
        document = clone_document(bundles[dataset].documents[index], "probe")
        inline.append(_timed(
            log, f"verify {dataset}/{index}", "core",
            lambda: repro.verify(
                document, schedule=schedules[dataset],
                config=repro.VerifierConfig(workers=4))))
    metrics["core.verify_inline_ms_per_doc"] = (
        1e3 * measure.median(inline), "ms")

    # -- llm -----------------------------------------------------------------
    metrics["llm.tokenize_us_per_prompt"] = _p50_us([
        _timed(log, "count_tokens", "llm", lambda: count_tokens(prompt))
        for _dataset, prompt in prompts
    ])
    models = {
        dataset: install_agent_policy(
            SimulatedLLM("gpt-4o", bundle.world, seed=0))
        for dataset, bundle in bundles.items()
    }
    metrics["llm.simulated_complete_us"] = _p50_us([
        _timed(log, "SimulatedLLM.complete", "llm",
               lambda: models[dataset].complete(prompt))
        for dataset, prompt in prompts
    ])

    # -- cache ---------------------------------------------------------------
    cache = TieredCache("bench-probe", 1024)
    metrics["cache.tiered_put_us"] = _p50_us([
        _timed(log, "TieredCache.put", "cache",
               lambda: cache.put(("gpt-4o", prompt), prompt))
        for _dataset, prompt in prompts
    ])
    metrics["cache.tiered_get_us"] = _p50_us([
        _timed(log, "TieredCache.get", "cache",
               lambda: cache.get(("gpt-4o", prompt)))
        for _dataset, prompt in prompts
    ])

    # -- cluster.protocol ----------------------------------------------------
    frames = [{"id": 1, "event": record.last_event}
              for record in by_document.values() if record.last_event]
    metrics["cluster.protocol.frame_roundtrip_us"] = _p50_us([
        _timed(log, "encode_frame + read_frame", "cluster.protocol",
               lambda: read_frame(io.BytesIO(encode_frame(frame))))
        for frame in frames
    ])
    return metrics
