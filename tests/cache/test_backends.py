"""Tier behaviour: the in-memory LRU, sqlite persistence/budget, tiering."""

import json

import pytest

from repro.cache import SqliteCacheBackend, TieredCache, stable_key


class _JsonCodec:
    def encode(self, value):
        return json.dumps(value)

    def decode(self, text):
        return json.loads(text)


class TestMemoryBackend:
    """The in-memory L1 every :class:`TieredCache` owns."""

    def test_lru_evicts_least_recent(self):
        cache = TieredCache("ns", 2)
        cache.put(("k1",), 1)
        cache.put(("k2",), 2)
        cache.get(("k1",))                # refresh k1; k2 is least-recent
        cache.put(("k3",), 3)
        assert cache.get(("k2",)) is None
        assert cache.get(("k1",)) == 1
        stats = cache.stats()
        assert (stats.evictions, stats.size, stats.max_size) == (1, 2, 2)

    def test_namespaces_are_disjoint_keyspaces(self, tmp_path):
        # Two caches on one L2 file: the namespace is part of the L2 key.
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        a = TieredCache("a", 8, l2=backend, codec=_JsonCodec())
        b = TieredCache("b", 8, l2=backend, codec=_JsonCodec())
        a.put(("k",), "from-a")
        b.put(("k",), "from-b")
        fresh_a = TieredCache("a", 8, l2=backend, codec=_JsonCodec())
        fresh_b = TieredCache("b", 8, l2=backend, codec=_JsonCodec())
        assert fresh_a.get(("k",)) == "from-a"
        assert fresh_b.get(("k",)) == "from-b"
        backend.close()

    def test_per_namespace_stats_and_aggregate(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        a = TieredCache("a", 8, l2=backend, codec=_JsonCodec())
        b = TieredCache("b", 8, l2=backend, codec=_JsonCodec())
        a.put(("k",), 1)
        a.get(("k",))                     # an L1 hit: L2 never asked
        b.get(("missing",))
        assert (a.stats().hits, b.stats().misses) == (1, 1)
        assert backend.stats("a").lookups == 0
        assert backend.stats("b").misses == 1
        total = backend.stats()
        assert (total.hits, total.misses, total.size) == (0, 1, 1)
        backend.close()

    def test_evict_one_namespace_keeps_others(self):
        a, b = TieredCache("a", 8), TieredCache("b", 8)
        a.put(("k",), 1)
        b.put(("k",), 2)
        a.clear()
        assert a.get(("k",)) is None
        assert b.get(("k",)) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TieredCache("ns", 0)


class TestSqliteBackend:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "l2.sqlite"
        first = SqliteCacheBackend(path)
        first.put("llm", "key1", "value1")
        first.close()
        second = SqliteCacheBackend(path)
        assert second.get("llm", "key1") == "value1"
        assert second.stats("llm").hits == 1
        second.close()

    def test_byte_budget_drops_oldest_first(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite", max_bytes=250)
        for index in range(5):
            backend.put("llm", f"k{index}", "x" * 100)
        # 5 * 100 bytes against a 250-byte budget: the first puts go.
        assert backend.get("llm", "k0") is None
        assert backend.get("llm", "k4") == "x" * 100
        assert backend.stats("llm").evictions >= 3
        backend.close()

    def test_byte_budget_is_shared_by_every_writer(self, tmp_path):
        """Two processes' connections on one file keep one total: the
        budget is stored in the file, not in either writer."""
        path = tmp_path / "l2.sqlite"
        first = SqliteCacheBackend(path, max_bytes=250)
        second = SqliteCacheBackend(path, max_bytes=250)
        first.put("llm", "k0", "x" * 100)
        second.put("llm", "k1", "x" * 100)
        first.put("llm", "k1", "x" * 100)   # a replace: no double count
        second.put("llm", "k2", "x" * 100)  # 300 > 250: the oldest goes
        assert first.get("llm", "k0") is None
        assert [second.get("llm", f"k{i}") for i in (1, 2)] == ["x" * 100] * 2
        assert first.stats().size == 2
        first.close()
        second.close()

    def test_byte_budget_seeds_from_rows_already_in_the_file(self, tmp_path):
        path = tmp_path / "l2.sqlite"
        writer = SqliteCacheBackend(path)
        for index in range(3):
            writer.put("llm", f"k{index}", "x" * 100)
        writer.close()
        # Reopened under a tighter budget: the next put sees 400 bytes.
        reopened = SqliteCacheBackend(path, max_bytes=250)
        reopened.put("llm", "k3", "x" * 100)
        assert reopened.get("llm", "k0") is None
        assert reopened.get("llm", "k3") == "x" * 100
        reopened.close()

    def test_corrupt_file_is_quarantined(self, tmp_path):
        path = tmp_path / "l2.sqlite"
        path.write_bytes(b"garbage, not sqlite" * 32)
        backend = SqliteCacheBackend(path)
        assert backend.enabled
        assert (tmp_path / "l2.sqlite.corrupt").exists()
        backend.put("llm", "k", "v")
        assert backend.get("llm", "k") == "v"
        backend.close()

    def test_disabled_backend_degrades_to_misses(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        backend.put("llm", "k", "v")
        backend.close()                     # simulate mid-flight failure
        assert not backend.enabled
        assert backend.get("llm", "k") is None
        backend.put("llm", "k2", "v2")      # silently dropped, no crash
        assert backend.stats().size == 0


class TestTieredCache:
    def test_l2_requires_codec(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        with pytest.raises(ValueError):
            TieredCache("ns", 8, l2=backend)
        backend.close()

    def test_l2_hit_promotes_into_l1(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        writer = TieredCache("ns", 8, l2=backend, codec=_JsonCodec())
        writer.put(("content", 1), {"answer": 42})
        # A second cache (fresh L1, same L2) — the restart picture.
        reader = TieredCache("ns", 8, l2=backend, codec=_JsonCodec())
        assert reader.get(("content", 1)) == {"answer": 42}
        tiers = reader.tier_stats()
        assert tiers["l1"]["misses"] == 1
        assert tiers["l2"]["hits"] >= 1
        # Promoted: the next read is pure L1.
        reader.get(("content", 1))
        assert reader.tier_stats()["l1"]["hits"] == 1
        assert reader.stats().hits == 2
        backend.close()

    def test_the_l2_key_is_the_stable_key_of_the_l1_key(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        cache = TieredCache("ns", 8, l2=backend, codec=_JsonCodec())
        cache.put(("gpt-4o", "prompt", 0.0, "None"), "answer")
        key = stable_key("ns", "gpt-4o", "prompt", 0.0, "None")
        assert backend.get("ns", key) == json.dumps("answer")
        backend.close()

    def test_undecodable_l2_payload_is_a_miss(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        backend.put("ns", stable_key("ns", "k"), "{not json")
        cache = TieredCache("ns", 8, l2=backend, codec=_JsonCodec())
        assert cache.get(("k",)) is None
        assert cache.stats().misses == 1
        backend.close()

    def test_bypasses_counted_without_touching_tiers(self):
        cache = TieredCache("ns", 8)
        cache.note_bypass()
        stats = cache.stats()
        assert stats.bypasses == 1
        assert stats.lookups == 0

    def test_clear_leaves_shared_l2_alone(self, tmp_path):
        backend = SqliteCacheBackend(tmp_path / "l2.sqlite")
        cache = TieredCache("ns", 8, l2=backend, codec=_JsonCodec())
        cache.put(("k",), "v")
        cache.clear()
        assert len(cache) == 0
        assert backend.stats("ns").size == 1
        backend.close()


def test_a_put_never_scans_the_file(tmp_path):
    """The budget check reads one stored total: no statement a put runs
    aggregates over the whole file (a per-put ``SUM`` made puts into a
    5,000-entry file ~30x slower than into an empty one)."""
    backend = SqliteCacheBackend(tmp_path / "l2.sqlite", max_bytes=250)
    statements = []
    backend._conn.set_trace_callback(statements.append)
    for index in range(5):
        backend.put("llm", f"k{index}", "x" * 100)
    backend.close()
    assert statements
    assert not [s for s in statements if "SUM(" in s.upper()], statements
