"""Serve-side read-only embedding cache (the paper's Figure 7).

The online system keeps embedding tables on the PS; a serving worker holds
a local row cache per (table, domain): an LRU of bounded capacity, filled
on demand from the snapshot ("pull the latest row from the PS on a miss")
and evicting the least-recently-used row when full.

Unlike the training-side :class:`repro.distributed.EmbeddingCache`, this
cache is *read-only*: serving never writes rows back, so there is no
static/dynamic delta.  Hit, miss and eviction counters feed
:meth:`repro.serving.service.Predictor.cache_stats`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..utils import profiling

__all__ = ["ServingEmbeddingCache"]


class ServingEmbeddingCache:
    """LRU row cache for one table."""

    def __init__(self, fetch_rows, capacity=1024):
        """``fetch_rows(ids) -> [len(ids), dim]`` is the backing PS pull."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._fetch = fetch_rows
        self._capacity = capacity
        self._rows = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def fetch(self, ids):
        """Row values for ``ids``, [len(ids), dim].

        Counters are per requested id (duplicates included); a miss counts
        every occurrence of the missing id in this call.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return np.asarray(self._fetch(ids), dtype=np.float64)
        unique, inverse, occurrences = np.unique(
            ids, return_inverse=True, return_counts=True
        )
        gathered = [None] * unique.size
        missing_slots = []
        for slot, row_id in enumerate(unique):
            key = int(row_id)
            row = self._rows.get(key)
            if row is not None:
                self._rows.move_to_end(key)
                self.hits += int(occurrences[slot])
                gathered[slot] = row
                continue
            missing_slots.append(slot)
        if missing_slots:
            missing_ids = unique[missing_slots]
            pulled = np.asarray(self._fetch(missing_ids), dtype=np.float64)
            profiling.count(
                "serving.cache.pull_rows", n=len(missing_slots),
                nbytes=pulled.nbytes,
            )
            for slot, row in zip(missing_slots, pulled):
                self.misses += int(occurrences[slot])
                gathered[slot] = row
                self._admit(int(unique[slot]), row)
        return np.stack(gathered)[inverse]

    def _admit(self, key, row):
        if self._capacity == 0:
            return
        if len(self._rows) >= self._capacity:
            self._rows.popitem(last=False)
            self.evictions += 1
        self._rows[key] = row

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def size(self):
        return len(self._rows)

    def ids(self):
        """Cached ids in LRU order (next eviction first)."""
        return list(self._rows)
