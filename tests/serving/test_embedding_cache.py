"""Serve-side embedding cache: LRU order and counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ServingEmbeddingCache

pytestmark = pytest.mark.serving

TABLE = np.arange(40.0).reshape(10, 4)


class CountingSource:
    """Backing row source that counts pull calls and pulled rows."""

    def __init__(self, table=TABLE):
        self.table = table
        self.calls = 0
        self.rows_pulled = 0

    def __call__(self, ids):
        self.calls += 1
        self.rows_pulled += len(ids)
        return self.table[np.asarray(ids, dtype=np.int64)]


def test_fetch_returns_backing_rows():
    cache = ServingEmbeddingCache(CountingSource(), capacity=4)
    np.testing.assert_array_equal(cache.fetch([2, 0, 2]), TABLE[[2, 0, 2]])
    # an empty batch is the backing gather of no ids, not an error
    assert cache.fetch([]).shape == (0, TABLE.shape[1])


def test_dynamic_lru_eviction_order():
    source = CountingSource()
    cache = ServingEmbeddingCache(source, capacity=2)
    cache.fetch([0])
    cache.fetch([1])
    assert cache.ids() == [0, 1]
    cache.fetch([0])                      # refresh 0: now 1 is next out
    assert cache.ids() == [1, 0]
    cache.fetch([2])                      # evicts 1
    assert cache.ids() == [0, 2]
    assert cache.evictions == 1
    cache.fetch([1])                      # 1 must re-miss
    assert cache.misses == 4


def test_counters_and_hit_rate():
    cache = ServingEmbeddingCache(CountingSource(), capacity=4)
    cache.fetch([0])
    cache.fetch([0, 5, 5, 7])
    # 0 hits; first 5 misses, duplicate 5 in the same call counts with
    # its unique id's outcome; 7 misses.
    assert cache.hits == 1
    assert cache.misses == 4
    cache.fetch([5, 7])
    assert cache.hits == 3
    assert cache.hit_rate == pytest.approx(3 / 7)
    assert cache.size() == 3
    assert cache.evictions == 0


def test_missing_rows_pulled_in_one_bulk_call():
    source = CountingSource()
    cache = ServingEmbeddingCache(source, capacity=8)
    cache.fetch([4, 1, 9, 1, 4])
    assert source.calls == 1
    assert source.rows_pulled == 3  # unique missing rows only


def test_zero_capacity_disables_dynamic_tier():
    source = CountingSource()
    cache = ServingEmbeddingCache(source, capacity=0)
    cache.fetch([1])
    cache.fetch([1])
    assert cache.size() == 0
    assert cache.misses == 2
    assert cache.evictions == 0


def test_returned_rows_are_detached_copies():
    cache = ServingEmbeddingCache(CountingSource(), capacity=4)
    rows = cache.fetch([3])
    rows[0, 0] = 1e9
    np.testing.assert_array_equal(cache.fetch([3]), TABLE[[3]])

