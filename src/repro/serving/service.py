"""The in-process serving path: RowLoader and Predictor.

A :class:`Predictor` binds one model skeleton to a
:class:`~repro.serving.snapshots.SnapshotStore` and answers per-domain CTR
queries with **bit-identical** results to offline
``space.load_combined(model, d); model.predict(batch)`` — the serving path
changes where parameters come from, never their values.

Two parameter paths exist, chosen by the field map:

* **full path** — on a (version, domain) switch the whole combined state is
  loaded.  ``field_map={}`` selects it; it is the only path for models
  without id embedding tables (e.g. the fixed-feature Taobao encoders).
* **row path** — dense (non-embedding) parameters are loaded on a
  (version, domain) switch, while embedding *rows* are fetched per batch
  through the serve-side :class:`ServingEmbeddingCache` and scattered into
  the table via ``Parameter.assign_rows``.  The forward pass only reads the
  rows of the current batch, so refreshing exactly those rows is
  sufficient — per-request work is O(batch), not O(table), which is what
  lets one worker serve many domains over huge id spaces (Section IV-E).

Under load the same Predictor runs in every
:class:`~repro.traffic.pool.PredictorPool` worker; request queueing,
batching and shedding live in :mod:`repro.traffic`.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..distributed.worker import embedding_field_map
from ..utils import profiling
from .embedding_cache import ServingEmbeddingCache

__all__ = ["Predictor", "RowLoader"]

#: rows per (table, domain) LRU row cache.
CACHE_CAPACITY = 2048


class RowLoader:
    """Loads combined states into one model skeleton, row-wise.

    Dense parameters whole; an embedding table in the field map only at
    the rows a batch reads — all its forward touches.  With no inferable
    map (fixed-feature encoders) every parameter is dense: the full load.
    """

    def __init__(self, model, field_map=None):
        self.model = model
        self.params = dict(model.named_parameters())
        if field_map is None:
            try:
                field_map = embedding_field_map(model)
            except ValueError:
                field_map = {}
        unknown = set(field_map) - set(self.params)
        if unknown:
            raise KeyError(
                f"field map references unknown parameters: {sorted(unknown)}"
            )
        self.field_map = dict(field_map)
        self.dense_names = frozenset(self.params) - set(self.field_map)

    def load(self, state, users, items, dense=True, rows_for=None):
        """Load what a forward over ``(users, items)`` reads of ``state``.
        ``dense=False`` skips dense parameters known to be current;
        ``rows_for(name, ids)`` replaces the gather from ``state``."""
        if dense:
            self.model.load_state_dict(state, names=self.dense_names)
        fields = {"users": users, "items": items}
        for name, field in self.field_map.items():
            ids = fields[field]
            rows = state[name][ids] if rows_for is None else rows_for(name, ids)
            self.params[name].assign_rows(ids, rows)


class Predictor:
    """Scores per-domain requests against the current snapshot."""

    def __init__(self, model, store, field_map=None):
        self._model = model
        self._store = store
        self._loader = RowLoader(model, field_map)
        self.field_map = self._loader.field_map
        self._loaded = None          # (version, domain) currently in the model
        self._caches = {}            # (name, domain) -> ServingEmbeddingCache
        self._cache_version = None

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def predict_batch(self, users, items, domain):
        """Click probabilities for a homogeneous-domain batch."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        # Pin the snapshot once: the whole batch is served from this
        # version even if a publish lands mid-batch (hot-swap atomicity).
        snapshot = self._store.current()
        start = profiling.tick()
        self._prepare(snapshot, int(domain), users, items)
        batch = Batch(users, items, np.zeros(len(users)), int(domain))
        scores = self._model.predict(batch)
        profiling.tock("serving.score_batch", start)
        profiling.count("serving.rows_scored", n=len(users))
        return scores

    def predict(self, user, item, domain):
        """One request's click probability."""
        return float(self.predict_batch([user], [item], domain)[0])

    def _prepare(self, snapshot, domain, users, items):
        # A (version, domain) switch refreshes the dense parameters; the
        # embedding tables are refreshed row-wise, through the row caches.
        key = (snapshot.version, domain)
        self._loader.load(
            snapshot.state_for(domain), users, items, dense=self._loaded != key,
            rows_for=lambda name, ids:
                self._cache_for(snapshot, name, domain).fetch(ids),
        )
        self._loaded = key

    def _cache_for(self, snapshot, name, domain):
        if self._cache_version != snapshot.version:
            # Row values belong to a version; a hot swap invalidates them.
            self._caches = {}
            self._cache_version = snapshot.version
        cache = self._caches.get((name, domain))
        if cache is None:
            cache = ServingEmbeddingCache(
                lambda ids, n=name, d=domain, s=snapshot: s.rows_for(n, d, ids),
                capacity=CACHE_CAPACITY,
            )
            self._caches[(name, domain)] = cache
        return cache

    def invalidate_caches(self):
        """Drop row caches and the loaded-state memo.

        The per-version caches hold closures over the snapshot they were
        built against; a pool worker calls this before flipping to a new
        shared-memory generation so no reference pins the old segment's
        buffer (the next ``predict_batch`` rebuilds caches lazily).
        """
        self._caches = {}
        self._cache_version = None
        self._loaded = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self):
        """Per-table cache counters aggregated over domains.

        ``static_hits`` is always 0: the cache has one LRU tier, and the
        key stays because the benchmark of record sums it.
        """
        aggregated = {}
        for (name, _domain), cache in self._caches.items():
            entry = aggregated.setdefault(name, {
                "caches": 0, "static_hits": 0, "dynamic_hits": 0,
                "misses": 0, "evictions": 0,
            })
            entry["caches"] += 1
            entry["dynamic_hits"] += cache.hits
            entry["misses"] += cache.misses
            entry["evictions"] += cache.evictions
        for entry in aggregated.values():
            total = entry["dynamic_hits"] + entry["misses"]
            entry["hit_rate"] = entry["dynamic_hits"] / total if total else 0.0
        return aggregated
