"""CampaignStore units: cache duck type, object count, hot cache."""

from __future__ import annotations

import json

from repro.campaign.cache import ResultCache, canonical_json, cell_key
from repro.serve.storage import CampaignStore

from tests.campaign._fakes import fake_cells, make_result


def _store(tmp_path, **kwargs) -> CampaignStore:
    return CampaignStore(tmp_path / "store", **kwargs)


class TestCacheDuckType:
    def test_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        assert cell not in store
        assert store.get(cell) is None
        store.put(cell, make_result(cell), wall_time=1.5)
        assert cell in store
        result = store.get(cell)
        assert result.workload == cell.workload
        store.close()

    def test_layout_matches_batch_campaign_dir(self, tmp_path):
        """The service's store *is* a campaign directory: objects under
        cache/objects/<shard>/, manifest path at the batch location."""
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        path = store.put(cell, make_result(cell))
        key = cell_key(cell)
        assert path == (store.base / "cache" / "objects" / key[:2]
                        / f"{key}.json")
        assert store.manifest_path == store.base / "manifest.json"
        store.close()


class TestObjectCount:
    """``stats()["objects"]`` is the number of shards on disk, however
    they got there or went away."""

    def test_put_is_upsert(self, tmp_path):
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        store.put(cell, make_result(cell), wall_time=1.0)
        store.put(cell, make_result(cell), wall_time=2.0)
        assert store.stats()["objects"] == 1
        store.close()

    def test_counts_preexisting_batch_cache(self, tmp_path):
        """Opening a store over a cache written by ResultCache alone
        (a plain batch campaign dir) serves and counts its cells."""
        legacy = ResultCache(tmp_path / "store" / "cache")
        for cell in fake_cells(2):
            legacy.put(cell, make_result(cell))
        store = _store(tmp_path)
        for cell in fake_cells(2):
            assert cell in store
        assert store.stats()["objects"] == 2
        store.close()

    def test_campaign_clean_empties_the_count(self, tmp_path):
        """``repro-sim campaign clean`` deletes the shards without the
        store; a reopened store counts none."""
        store = _store(tmp_path)
        for cell in fake_cells(2):
            store.put(cell, make_result(cell))
        store.close()
        assert ResultCache(store.base / "cache").clear() == 2
        reopened = _store(tmp_path)
        assert reopened.stats()["objects"] == 0
        reopened.close()

    def test_torn_entry_eviction_drops_the_count(self, tmp_path):
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        path = store.put(cell, make_result(cell))
        before = store.stats()["objects"]
        path.write_bytes(b'{"key": "')
        assert store.get_raw(cell_key(cell)) is None
        assert store.stats()["objects"] == before - 1
        store.close()


class TestHotCache:
    def test_repeat_fetch_served_from_memory(self, tmp_path):
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        store.put(cell, make_result(cell))
        key = cell_key(cell)
        first = store.get_raw(key)
        assert first is not None
        assert store.hot.stats()["misses"] >= 1
        # Second fetch hits memory and returns identical bytes.
        hits_before = store.hot.stats()["hits"]
        assert store.get_raw(key) == first
        assert store.hot.stats()["hits"] == hits_before + 1
        store.close()

    def test_get_raw_missing_key(self, tmp_path):
        store = _store(tmp_path)
        assert store.get_raw("0" * 64) is None
        store.close()

    def test_get_raw_rejects_foreign_entry(self, tmp_path):
        """An entry whose embedded key mismatches its path is treated
        as absent and evicted, like ResultCache.get would."""
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        path = store.put(cell, make_result(cell))
        payload = json.loads(path.read_text())
        payload["key"] = "f" * 64
        path.write_text(json.dumps(payload))
        assert store.get_raw(cell_key(cell)) is None
        assert not path.exists()
        store.close()

    def test_put_invalidates_hot_entry(self, tmp_path):
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        store.put(cell, make_result(cell), wall_time=1.0)
        key = cell_key(cell)
        store.get_raw(key)                       # promote
        store.put(cell, make_result(cell), wall_time=9.0)
        fresh = json.loads(store.get_raw(key))
        assert fresh["wall_time"] == 9.0
        store.close()

    def test_lru_bounded_by_entries(self, tmp_path):
        store = _store(tmp_path, hot_entries=2)
        cells = fake_cells(3)
        for cell in cells:
            store.put(cell, make_result(cell))
            store.get_raw(cell_key(cell))
        assert len(store.hot) == 2
        store.close()

    def test_get_result_raw(self, tmp_path):
        """The entry's ``result`` slice: the canonical JSON of the
        decoded payload, byte for byte."""
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        store.put(cell, make_result(cell))
        key = cell_key(cell)
        raw = store.get_result_raw(key)
        payload = json.loads(raw)
        assert payload == json.loads(store.get_raw(key))["result"]
        assert raw == canonical_json(payload).encode()
        assert payload["workload"] == cell.workload
        assert payload["cycles"] == 1000
        assert store.get_result_raw("0" * 64) is None
        store.close()

    def test_cleaned_shard_ends_its_hot_entry(self, tmp_path):
        """``repro-sim campaign clean`` deletes shards from another
        process: a hot hit whose shard is gone is a miss, and its
        entry goes."""
        store = _store(tmp_path)
        cell = fake_cells(1)[0]
        store.put(cell, make_result(cell))
        key = cell_key(cell)
        assert store.get_raw(key) is not None        # promote
        assert ResultCache(store.base / "cache").clear() == 1
        assert store.get_raw(key) is None
        assert store.get_result_raw(key) is None
        assert len(store.hot) == 0
        store.close()


class TestStats:
    def test_stats_shape(self, tmp_path):
        store = _store(tmp_path)
        stats = store.stats()
        assert set(stats) == {"objects", "hot", "journal_mode", "root"}
        assert stats["objects"] == 0
        assert stats["journal_mode"] == "none"
        assert set(stats["hot"]) == {"entries", "bytes", "hits",
                                     "misses"}
        store.close()
