"""The serving front door: Predictor, latency accounting, ServingService.

A :class:`Predictor` binds one model skeleton to a
:class:`~repro.serving.snapshots.SnapshotStore` and answers per-domain CTR
queries with **bit-identical** results to offline
``space.load_combined(model, d); model.predict(batch)`` — the serving path
changes where parameters come from, never their values.

Two parameter paths exist, chosen automatically:

* **full path** — on a (version, domain) switch the whole combined state is
  loaded.  Always available; the only option for models without id
  embedding tables (e.g. the fixed-feature Taobao encoders).
* **row path** — dense (non-embedding) parameters are loaded on a
  (version, domain) switch, while embedding *rows* are fetched per batch
  through the serve-side :class:`ServingEmbeddingCache` and scattered into
  the table via ``Parameter.assign_rows``.  The forward pass only reads the
  rows of the current batch, so refreshing exactly those rows is
  sufficient — per-request work is O(batch), not O(table), which is what
  lets one worker serve many domains over huge id spaces (Section IV-E).

:class:`ServingService` wires a Predictor to the
:class:`~repro.serving.batcher.MicroBatcher` and a latency recorder whose
p50/p95/p99 and QPS are exported through :mod:`repro.utils.profiling`.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.batching import Batch
from ..distributed.worker import embedding_field_map
from ..utils import profiling
from .batcher import BatchingPolicy, MicroBatcher
from .embedding_cache import ServingEmbeddingCache, training_access_counts
from .snapshots import SnapshotStore

__all__ = ["LatencyRecorder", "Predictor", "RowLoader", "ServingService"]

#: rows per (table, domain) row cache: the pinned hottest-by-training-access
#: static tier, and the LRU dynamic tier behind it.
STATIC_CACHE_CAPACITY = 256
DYNAMIC_CACHE_CAPACITY = 2048


class LatencyRecorder:
    """Per-request latency samples with tail percentiles and QPS."""

    def __init__(self, name="serving.request_seconds"):
        self.name = name
        self._samples = []

    def observe(self, seconds):
        self._samples.append(float(seconds))
        profiling.observe(self.name, seconds)

    def reset(self):
        self._samples = []

    @property
    def count(self):
        return len(self._samples)

    def quantile_seconds(self, q):
        return profiling.percentile(self._samples, q)

    def qps(self, elapsed_seconds):
        """Request throughput over an externally timed window."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.count / elapsed_seconds

    def summary(self):
        if not self._samples:
            return {"count": 0}
        scale = 1e3  # report milliseconds
        return {
            "count": self.count,
            "mean_ms": sum(self._samples) / self.count * scale,
            "p50_ms": self.quantile_seconds(0.5) * scale,
            "p95_ms": self.quantile_seconds(0.95) * scale,
            "p99_ms": self.quantile_seconds(0.99) * scale,
        }


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

    def __init__(self, model, store, field_map=None, use_row_cache=True):
        self._model = model
        self._store = store
        self._loader = RowLoader(model, field_map)
        self.field_map = self._loader.field_map
        self.use_row_cache = bool(use_row_cache) and bool(self.field_map)
        if not self.use_row_cache:
            self._loader = RowLoader(model, {})  # all dense: the full path
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
                static_ids=snapshot.static_row_ids(
                    name, STATIC_CACHE_CAPACITY
                ),
                capacity=DYNAMIC_CACHE_CAPACITY,
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
        """Per-table cache counters aggregated over domains."""
        aggregated = {}
        for (name, _domain), cache in self._caches.items():
            entry = aggregated.setdefault(name, {
                "caches": 0, "static_hits": 0, "dynamic_hits": 0,
                "misses": 0, "evictions": 0,
            })
            stats = cache.stats()
            entry["caches"] += 1
            for field in ("static_hits", "dynamic_hits", "misses",
                          "evictions"):
                entry[field] += stats[field]
        for entry in aggregated.values():
            hits = entry["static_hits"] + entry["dynamic_hits"]
            total = hits + entry["misses"]
            entry["hit_rate"] = hits / total if total else 0.0
        return aggregated


class ServingService:
    """The online inference front door: predict, batch, reload, stats."""

    def __init__(self, model, store=None, policy=None, field_map=None,
                 use_row_cache=True, clock=time.perf_counter):
        self.store = store if store is not None else SnapshotStore()
        self.predictor = Predictor(
            model, self.store, field_map=field_map,
            use_row_cache=use_row_cache,
        )
        self.latency = LatencyRecorder()
        self._clock = clock
        self.batcher = MicroBatcher(
            policy if policy is not None else BatchingPolicy(),
            score_batch=self.predictor.predict_batch,
            clock=clock,
            on_complete=lambda request: self.latency.observe(request.latency),
        )

    # ------------------------------------------------------------------
    # Publishing / reloading
    # ------------------------------------------------------------------
    def publish(self, space, dataset=None, access_counts=None, metadata=None):
        """Publish a trained parameter space as the new live version.

        When ``dataset`` is given (and the model has id-embedding tables),
        per-row training access counts are derived from it so the serve
        caches can pin their static sets (Figure 7's frequency ranking).
        """
        if access_counts is None and dataset is not None:
            field_map = self.predictor.field_map
            if field_map:
                sizes = {
                    name: self.predictor._loader.params[name].data.shape[0]
                    for name in field_map
                }
                access_counts = training_access_counts(
                    dataset, field_map, sizes
                )
        return self.store.publish(
            space, access_counts=access_counts, metadata=metadata
        )

    def publish_states(self, domain_states, default_state=None, **kwargs):
        """Publish explicit per-domain states (a trained ``StateBank``)."""
        return self.store.publish_states(
            domain_states, default_state=default_state, **kwargs
        )

    reload = publish

    # ------------------------------------------------------------------
    # Synchronous path
    # ------------------------------------------------------------------
    def predict_batch(self, users, items, domain):
        start = self._clock()
        scores = self.predictor.predict_batch(users, items, domain)
        elapsed = self._clock() - start
        for _ in range(len(scores)):
            self.latency.observe(elapsed)
        return scores

    def predict(self, user, item, domain):
        return float(self.predict_batch([user], [item], domain)[0])

    # ------------------------------------------------------------------
    # Micro-batched path
    # ------------------------------------------------------------------
    def submit(self, user, item, domain):
        return self.batcher.submit(user, item, domain)

    def poll(self):
        return self.batcher.poll()

    def drain(self):
        return self.batcher.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        try:
            version = self.store.version
        except LookupError:
            version = None
        return {
            "version": version,
            "latency": self.latency.summary(),
            "batcher": self.batcher.stats(),
            "embedding_cache": self.predictor.cache_stats(),
        }

    def reset_stats(self):
        self.latency.reset()
