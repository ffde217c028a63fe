"""The cache API: stats shape, stable keys, the cache_db setting, codecs."""

import pytest

from repro.cache import CacheStats, SqliteCacheBackend, TieredCache, stable_key
from repro.core import VerifierConfig
from repro.llm import ChatResponse, ChatUsage
from repro.llm.cache import CHAT_RESPONSE_CODEC
from repro.service import ServiceConfig
from repro.sqlengine import QueryResult, shared_plan_cache
from repro.sqlengine.planner import QUERY_RESULT_CODEC


class TestCacheStats:
    def test_hit_rate_excludes_bypasses(self):
        stats = CacheStats(hits=3, misses=1, bypasses=10)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_to_dict_shape(self):
        rendered = CacheStats(hits=1, misses=3).to_dict()
        assert set(rendered) == {
            "hits", "misses", "lookups", "bypasses", "evictions",
            "size", "max_size", "hit_rate",
        }
        assert rendered["hit_rate"] == 0.25


class TestStableKey:
    def test_deterministic(self):
        assert stable_key("ns", "a", 1) == stable_key("ns", "a", 1)

    def test_namespace_and_parts_matter(self):
        baseline = stable_key("ns", "a", 1)
        assert stable_key("other", "a", 1) != baseline
        assert stable_key("ns", "a", 2) != baseline
        assert stable_key("ns", "a1") != baseline  # no concatenation tricks

    def test_distinguishes_types(self):
        assert stable_key("ns", 1) != stable_key("ns", "1")
        assert stable_key("ns", None) != stable_key("ns", "null")


class TestCacheConfig:
    """The one cache setting: a ``cache_db`` path per config."""

    def test_defaults_have_no_persistent_tier(self):
        config = VerifierConfig(cache_size=8)
        assert config.cache_db is None
        assert ServiceConfig().cache_db is None
        assert config.open_cache_db() is None
        assert not config.make_cache().has_l2
        assert not config.make_sql_cache().has_l2

    def test_open_is_memoised(self, tmp_path):
        config = VerifierConfig(cache_db=str(tmp_path / "l2.sqlite"))
        backend = config.open_cache_db()
        assert backend is config.open_cache_db()
        assert backend.enabled
        backend.close()

    def test_path_enables_default_namespaces_only(self, tmp_path):
        # Only the LLM responses and SQL results persist; plans and
        # analyses are live objects and stay in memory.
        config = VerifierConfig(cache_db=str(tmp_path / "l2.sqlite"))
        llm, sql = config.make_cache(), config.make_sql_cache()
        assert (llm.namespace, sql.namespace) == ("llm", "sql_result")
        assert llm.has_l2 and sql.has_l2
        assert not shared_plan_cache().has_l2
        config.open_cache_db().close()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SqliteCacheBackend(tmp_path / "l2.sqlite", max_bytes=0)
        with pytest.raises(ValueError):
            TieredCache("ns", 0)


class TestCodecs:
    def test_chat_response_exact_round_trip(self):
        response = ChatResponse(
            text="verdict: TRUE\nbecause 0.1 + 0.2 == 0.30000000000000004",
            model="gpt-4o",
            usage=ChatUsage(prompt_tokens=123, completion_tokens=45),
            cost=0.1 + 0.2,  # a float that exposes sloppy serialisation
            latency_seconds=1.25,
        )
        decoded = CHAT_RESPONSE_CODEC.decode(
            CHAT_RESPONSE_CODEC.encode(response)
        )
        assert decoded == response

    def test_query_result_exact_round_trip(self):
        result = QueryResult(
            columns=["name", "score", "ratio"],
            rows=[("a", 1, 0.1 + 0.2), ("b", None, -3.5), ("c", True, 2.0)],
        )
        decoded = QUERY_RESULT_CODEC.decode(QUERY_RESULT_CODEC.encode(result))
        assert decoded.columns == result.columns
        assert decoded.rows == result.rows
        assert all(isinstance(row, tuple) for row in decoded.rows)
