"""The result cache: keys, integrity checking, invalidation, stats.

The cache may never serve a value for inputs it was not computed from —
these tests pin the three ways that could happen (key collision across
parts, corrupted entries, stale code) and the counters the runner and CI
rely on to prove the cache actually worked.
"""

from pathlib import Path

from repro.fabric.cache import ResultCache, code_salt


class TestKeys:
    def test_same_parts_same_key(self, tmp_path: Path):
        cache = ResultCache(tmp_path, salt="s")
        assert cache.key("run", "a", 1) == cache.key("run", "a", 1)

    def test_any_part_changes_key(self, tmp_path: Path):
        cache = ResultCache(tmp_path, salt="s")
        base = cache.key("run", "a", 1)
        assert cache.key("run", "a", 2) != base
        assert cache.key("run", "b", 1) != base
        assert cache.key("exp", "a", 1) != base

    def test_salt_changes_key(self, tmp_path: Path):
        a = ResultCache(tmp_path, salt="s1")
        b = ResultCache(tmp_path, salt="s2")
        assert a.key("run", "x") != b.key("run", "x")

    def test_default_salt_is_code_salt(self, tmp_path: Path):
        assert ResultCache(tmp_path).salt == code_salt()
        # memoised and stable within a process
        assert code_salt() == code_salt()


class TestRoundtrip:
    def test_put_get(self, tmp_path: Path):
        cache = ResultCache(tmp_path, salt="s")
        key = cache.key("run", "payload")
        assert cache.get(key) is None
        cache.put(key, {"answer": 42, "items": [1, 2, 3]})
        assert cache.get(key) == {"answer": 42, "items": [1, 2, 3]}
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "errors": 0, "quarantined": 0,
        }

    def test_salt_bump_invalidates(self, tmp_path: Path):
        """A new code-version salt must orphan every old entry."""
        old = ResultCache(tmp_path, salt="v1")
        key_v1 = old.key("run", "x")
        old.put(key_v1, "stale")
        new = ResultCache(tmp_path, salt="v2")
        assert new.get(new.key("run", "x")) is None
        assert new.stats.misses == 1 and new.stats.hits == 0


class TestPoisonedEntries:
    def _poison(self, cache: ResultCache, key: str, blob: bytes) -> Path:
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        return path

    def test_truncated_payload_detected(self, tmp_path: Path):
        cache = ResultCache(tmp_path, salt="s")
        key = cache.key("run", "x")
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        assert cache.get(key) is None
        assert cache.stats.errors == 1 and cache.stats.misses == 1
        assert not path.exists(), "corrupt entry must be evicted"

    def test_flipped_payload_byte_detected(self, tmp_path: Path):
        cache = ResultCache(tmp_path, salt="s")
        key = cache.key("run", "x")
        cache.put(key, "value")
        path = cache._path(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert cache.get(key) is None
        assert cache.stats.errors == 1

    def test_garbage_entry_detected(self, tmp_path: Path):
        cache = ResultCache(tmp_path, salt="s")
        key = cache.key("run", "x")
        self._poison(cache, key, b"not a cache entry at all")
        assert cache.get(key) is None
        assert cache.stats.errors == 1

    def test_resimulation_after_poisoning(self, tmp_path: Path):
        """Poisoned entry -> miss -> re-store -> clean hit again."""
        cache = ResultCache(tmp_path, salt="s")
        key = cache.key("run", "x")
        cache.put(key, "good")
        self._poison(cache, key, b"garbage\nmore garbage")
        assert cache.get(key) is None
        cache.put(key, "good")
        assert cache.get(key) == "good"
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 2, "errors": 1, "quarantined": 1,
        }
