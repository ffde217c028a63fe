"""Determinism guard: caching never changes output, at any tier.

The compile-and-cache engine (plan cache, compiled evaluators, hash
joins, shared result cache) promises byte-identical behaviour, and the
persistent L2 tier extends that promise across process restarts. This
suite runs ``repro.verify()`` end to end with the caches on and off
under a fixed seed and compares the rendered reports byte for byte —
if any optimization leaks into verdicts, queries, or spend, the diff
shows up here. The L2 scenarios simulate kill-and-restart by reopening
a fresh ``VerifierConfig(cache_db=...)`` on the same sqlite path, and
prove the corruption policy (garbage file → quarantine, never a crash).
"""

import repro
from repro.core import ScheduleEntry, VerifierConfig, to_json, to_markdown
from repro.datasets import build_tabfact
from repro.experiments import build_cedar
from repro.llm import LatencySimulatingClient


def _verify(sql_cache_size: int, workers: int = 1,
            cache_path=None, cache_size: int = 0, blocking: bool = False):
    """One full verification arm: fresh bundle, fixed seed. ``blocking``
    puts each model behind a 0 s sleep, so with ``workers > 1`` its
    claims run on the pool rather than inline."""
    bundle = build_tabfact(table_count=5, total_claims=15)
    system = build_cedar(bundle, seed=9)
    if blocking:
        for method in system.methods:
            method.client = LatencySimulatingClient(method.client, 0.0)
    entries = [
        ScheduleEntry(system.method_by_name("one_shot[gpt-3.5-turbo]"), 2),
        ScheduleEntry(system.method_by_name("agent[gpt-4o]"), 1),
    ]
    # A fresh config per arm means a fresh sqlite connection to the
    # same file — exactly what a process restart looks like to L2.
    cache_db = str(cache_path) if cache_path is not None else None
    config = VerifierConfig(
        ledger=system.ledger,
        workers=workers,
        sql_cache_size=sql_cache_size,
        cache_size=cache_size,
        cache_db=cache_db,
    )
    run = repro.verify(bundle.documents, schedule=entries, config=config)
    store = config.open_cache_db()
    # A warm L2 answers calls without the model, so a document's spend
    # legitimately differs between arms; reports are rendered without
    # the spend section for the byte comparison.
    reports = [to_json(doc, run) for doc in bundle.documents]
    rendered = [to_markdown(doc, run) for doc in bundle.documents]
    verdicts = [claim.correct for claim in bundle.claims]
    ledger = system.ledger
    l2_stats = store.stats() if store is not None else None
    if store is not None:
        store.close()
    cache = run.verifier.cache
    bypasses = cache.stats().bypasses if cache is not None else None
    return (reports, rendered, verdicts,
            (ledger.totals().calls, ledger.totals().cost), l2_stats,
            bypasses)


class TestCacheDeterminism:
    def test_reports_byte_identical_with_and_without_sql_cache(self):
        cached = _verify(sql_cache_size=256)
        uncached = _verify(sql_cache_size=0)
        assert cached[0] == uncached[0]     # JSON reports
        assert cached[1] == uncached[1]     # markdown renderings
        assert cached[2] == uncached[2]     # verdicts
        assert cached[3] == uncached[3]     # LLM calls and cost

    def test_repeat_cached_run_is_stable(self):
        first = _verify(sql_cache_size=256)
        second = _verify(sql_cache_size=256)
        assert first[0] == second[0]
        assert first[2] == second[2]

    def test_parallel_cached_matches_sequential_uncached(self):
        parallel = _verify(sql_cache_size=256, workers=4, blocking=True)
        sequential = _verify(sql_cache_size=0, workers=1)
        assert parallel[0] == sequential[0]
        assert parallel[2] == sequential[2]
        assert parallel[3] == sequential[3]


class TestPersistentTierDeterminism:
    def test_kill_and_restart_warm_run_is_byte_identical(self, tmp_path):
        """Cold run writes L2; a fresh process reads it back verbatim."""
        path = tmp_path / "l2.sqlite"
        baseline = _verify(sql_cache_size=256)          # no L2 at all
        cold = _verify(sql_cache_size=256, cache_size=64, cache_path=path)
        assert path.exists()
        assert cold[4].size > 0                         # L2 was populated
        # "Restart": everything rebuilt from scratch — new bundle, new
        # engines, new VerifierConfig — only the sqlite file survives.
        warm = _verify(sql_cache_size=256, cache_size=64, cache_path=path)
        assert warm[4].hits > 0                         # L2 actually served
        for arm in (cold, warm):
            assert arm[0] == baseline[0]                # JSON reports
            assert arm[1] == baseline[1]                # markdown
            assert arm[2] == baseline[2]                # verdicts
        # Warm L2 hits skip the simulated LLM, so calls/cost drop —
        # report bytes must not.
        assert warm[0] == cold[0]
        assert warm[1] == cold[1]
        # Every temperature-0 call is answered from L1/L2: the only calls
        # that reach the model are the temperature > 0 retries, which
        # bypass the cache by design (Assumption 1).
        warm_calls, cold_calls = warm[3][0], cold[3][0]
        assert warm_calls == warm[5]
        assert warm_calls < cold_calls

    def test_corrupt_l2_file_recovers_without_crashing(self, tmp_path):
        """Garbage where the database should be → quarantine, not error."""
        path = tmp_path / "l2.sqlite"
        path.write_bytes(b"this is not a sqlite file\x00\xff" * 64)
        baseline = _verify(sql_cache_size=256)
        run = _verify(sql_cache_size=256, cache_size=64, cache_path=path)
        assert run[0] == baseline[0]
        assert run[2] == baseline[2]
        # The poisoned file was moved aside and a fresh store written.
        assert (tmp_path / "l2.sqlite.corrupt").exists()
        assert run[4].size > 0
