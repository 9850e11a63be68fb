"""Worker role of the PS-Worker architecture (Figure 6).

Each worker owns a shard of domains, its own model replica and inner-loop
optimizer.  Per epoch it (2) pulls dense parameters from the PS, (3) runs
the MAMDR/DN inner loop on its shard — fetching embedding rows through the
static/dynamic cache on demand — and (4) pushes the outer-loop delta
``Θ~ − Θ`` back to the PS.

All PS traffic flows through a :class:`~repro.distributed.transport.
PSClient` over a message channel, so it can be delayed, dropped, retried
and deduplicated by the fault-injection harness.  Workers additionally
send heartbeats (one at epoch start, one after every domain) that drive
the cluster's eviction monitor.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import iter_minibatches
from ..nn.compile import active_executor, eager_step
from ..nn.layers import Embedding
from ..nn.optim import make_optimizer
from .cache import EmbeddingCache

__all__ = ["Worker", "embedding_parameter_names", "embedding_field_map"]


def embedding_parameter_names(model):
    """Dotted names of all embedding-table weights in a model."""
    names = []
    for module_name, module in model.named_modules():
        if isinstance(module, Embedding):
            prefix = module_name + "." if module_name else ""
            names.append(prefix + "weight")
    return names


def embedding_field_map(model):
    """Map embedding weight names to the batch field that indexes them.

    The convention is structural: embedding modules whose name mentions
    ``user`` are indexed by ``batch.users``, ``item`` by ``batch.items``.
    """
    mapping = {}
    for name in embedding_parameter_names(model):
        if "user" in name:
            mapping[name] = "users"
        elif "item" in name:
            mapping[name] = "items"
        else:
            raise ValueError(
                f"cannot infer batch field for embedding {name!r}; "
                "pass an explicit field map"
            )
    return mapping


class Worker:
    """One simulated worker machine.

    ``client`` is a :class:`~repro.distributed.transport.PSClient`: all
    PS traffic goes through a failable channel.
    """

    def __init__(self, worker_id, model, domain_indices, client, config,
                 field_map=None):
        self.worker_id = worker_id
        self.model = model
        self.domain_indices = list(domain_indices)
        self.client = client
        self.config = config
        #: epochs this worker completed (pull→train→push round trips).
        self.epochs_run = 0
        #: scheduler-level liveness (cleared when the simulated process dies).
        self.alive = True
        #: set by the cluster's heartbeat monitor when it evicts this worker.
        self.evicted = False
        self.field_map = (
            field_map if field_map is not None else embedding_field_map(model)
        )
        unknown = set(self.field_map) - set(embedding_parameter_names(model))
        if unknown:
            raise KeyError(
                f"field map references non-embedding tables: {sorted(unknown)}"
            )
        self.caches = {
            name: EmbeddingCache(self.client, name) for name in self.field_map
        }
        self.optimizer = make_optimizer(
            config.inner_optimizer, model.parameters(), config.inner_lr
        )
        self._named = dict(model.named_parameters())

    def run_epoch(self, dataset, rng):
        """One inner loop over this worker's shard; pushes the delta.

        Raises :class:`~repro.distributed.faults.WorkerCrashed` when the
        fault plan kills this worker mid-epoch, and
        :class:`~repro.distributed.transport.DeliveryFailed` when the PS
        stays unreachable through every retry — the cluster treats both as
        a dead worker.
        """
        self.client.heartbeat()
        static_dense = self.client.pull_dense()
        for name, value in static_dense.items():
            param = self._named[name]
            # The worker is the PS deployment's optimizer-equivalent; it
            # rebinds buffers between graphs, never mid-graph.
            # lint: allow[data-mutation]
            param.data = value.copy()
            param.bump_version()

        order = list(self.domain_indices)
        rng.shuffle(order)
        for domain_index in order:
            domain = dataset.domain(domain_index)
            for batch in iter_minibatches(
                domain.train, domain_index, self.config.batch_size,
                rng=rng, max_batches=self.config.inner_steps,
            ):
                self._train_batch(batch)
            self.client.heartbeat()

        dense_delta = {
            name: self._named[name].data - static_dense[name]
            for name in static_dense
        }
        embedding_deltas = {
            name: cache.deltas() for name, cache in self.caches.items()
        }
        self.client.push_delta(dense_delta, embedding_deltas)
        for cache in self.caches.values():
            cache.clear()
        self.epochs_run += 1

    def _train_batch(self, batch):
        touched = self._materialize_rows(batch)
        executor = active_executor(self.model)
        if executor is not None:
            loss_value = executor.step(batch, self.optimizer)
        else:
            loss_value = eager_step(self.model, batch, self.optimizer)
        self._writeback_rows(touched)
        return loss_value

    def _materialize_rows(self, batch):
        """Fetch the embedding rows this batch touches into the model."""
        touched = {}
        for name, field in self.field_map.items():
            ids = np.unique(getattr(batch, field))
            rows = self.caches[name].fetch(ids)
            param = self._named[name]
            # Row materialization from the embedding cache happens before
            # the batch's graph is built.
            # lint: allow[data-mutation]
            param.data[ids] = rows
            param.bump_version()
            touched[name] = ids
        return touched

    def _writeback_rows(self, touched):
        """Record updated rows into the dynamic cache."""
        for name, ids in touched.items():
            self.caches[name].update(ids, self._named[name].data[ids])

    def cache_stats(self):
        return {
            name: {"hits": cache.hits, "misses": cache.misses,
                   "hit_rate": cache.hit_rate}
            for name, cache in self.caches.items()
        }

    def transport_stats(self):
        """The client's delivery counters (retries, dedups, rejections)."""
        return dict(self.client.counters)
