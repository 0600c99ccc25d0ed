"""Tests for the content-addressed LRU result cache."""

import numpy as np
import pytest

from repro.serve.cache import MISS, LruResultCache, content_key, content_keys


class TestContentKey:
    def test_equal_inputs_equal_keys(self):
        row = np.random.default_rng(0).random(16)
        assert content_key("m", row) == content_key("m", row.copy())

    def test_model_identity_separates_keys(self):
        row = np.random.default_rng(0).random(16)
        assert content_key("model-a", row) != content_key("model-b", row)

    def test_feature_bytes_separate_keys(self):
        row = np.random.default_rng(0).random(16)
        other = row.copy()
        other[3] += 1e-12  # any bit difference is a different window
        assert content_key("m", row) != content_key("m", other)

    def test_dtype_canonicalised(self):
        row32 = np.arange(4, dtype=np.float32)
        row64 = np.arange(4, dtype=np.float64)
        assert content_key("m", row32) == content_key("m", row64)


    def test_batch_keys_match_the_digest_definition(self):
        """``content_keys`` (one shared digest prefix) and
        ``content_key`` both equal blake2b(model id | row shape | row
        bytes) — the key format cached entries were written under."""
        import hashlib

        matrix = np.random.default_rng(1).random((5, 7))

        def reference(row):
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"m")
            digest.update(str(row.shape).encode())
            digest.update(row.tobytes())
            return digest.digest()

        expected = [reference(row) for row in matrix]
        assert content_keys("m", matrix) == expected
        assert [content_key("m", row) for row in matrix] == expected


class TestLruResultCache:
    def test_miss_then_hit(self):
        cache = LruResultCache(4)
        key = content_key("m", np.zeros(2))
        assert cache.lookup_many([key]) == [MISS]
        cache.put_many([(key, 1.5)])
        assert cache.lookup_many([key]) == [1.5]

    def test_capacity_evicts_least_recent(self):
        cache = LruResultCache(2)
        keys = [content_key("m", np.full(2, i)) for i in range(3)]
        cache.put_many([(keys[0], 0), (keys[1], 1)])
        cache.lookup_many([keys[0]])  # refresh 0; 1 becomes LRU
        cache.put_many([(keys[2], 2)])
        assert cache.lookup_many(keys) == [0, MISS, 2]
        assert len(cache) == 2

    def test_put_refreshes_existing_entry(self):
        cache = LruResultCache(2)
        key = content_key("m", np.zeros(2))
        cache.put_many([(key, 1)])
        cache.put_many([(key, 2)])
        assert len(cache) == 1
        assert cache.lookup_many([key]) == [2]

    def test_batched_calls_match_one_at_a_time(self):
        keys = [bytes([i]) for i in range(6)]
        batched, single = LruResultCache(4), LruResultCache(4)
        batched.put_many((key, i) for i, key in enumerate(keys))
        for i, key in enumerate(keys):
            single.put_many([(key, i)])
        probe = [keys[0], keys[3], keys[5], keys[3]]
        assert batched.lookup_many(probe) == [
            single.lookup_many([key])[0] for key in probe
        ]
        assert list(batched._entries) == list(single._entries)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruResultCache(0)
