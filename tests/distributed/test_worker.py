"""Worker semantics: pull/train/push cycle in isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.distributed import DirectChannel, ParameterServer, PSClient, Worker
from repro.distributed.worker import embedding_parameter_names
from repro.models import build_model
from repro.utils.seeding import spawn_rng


def make_parts(dataset, domains=(0,), config=None):
    model = build_model("mlp", dataset, seed=0)
    ps = ParameterServer(
        model.state_dict(),
        embedding_names=embedding_parameter_names(model),
        outer_lr=1.0,
    )
    config = config or TrainConfig(epochs=1, inner_steps=2, batch_size=32)
    worker = Worker(0, model, domains, PSClient(DirectChannel(ps), 0), config)
    return model, ps, worker


def test_worker_pushes_exactly_once_per_epoch(tiny_dataset):
    _, ps, worker = make_parts(tiny_dataset)
    rng = spawn_rng(0, "w")
    worker.run_epoch(tiny_dataset, rng)
    assert ps.version == 1
    worker.run_epoch(tiny_dataset, rng)
    assert ps.version == 2


def test_worker_only_touches_shard_rows(tiny_dataset):
    """Embedding rows never seen by the worker's domains keep their PS
    values exactly."""
    _, ps, worker = make_parts(tiny_dataset, domains=(0,))
    before = ps.full_state()
    rng = spawn_rng(0, "w")
    worker.run_epoch(tiny_dataset, rng)
    after = ps.full_state()

    domain = tiny_dataset.domain(0)
    touched_users = set(np.unique(domain.train.users).tolist())
    table_name = "encoder.user_embedding.weight"
    for row in range(before[table_name].shape[0]):
        if row not in touched_users:
            np.testing.assert_array_equal(
                before[table_name][row], after[table_name][row]
            )
    # dense parameters did move
    assert not np.allclose(before["body.layers.0.weight"],
                           after["body.layers.0.weight"])


def test_worker_caches_cleared_after_epoch(tiny_dataset):
    _, _, worker = make_parts(tiny_dataset)
    rng = spawn_rng(0, "w")
    worker.run_epoch(tiny_dataset, rng)
    for cache in worker.caches.values():
        assert cache.deltas() == {}


def test_worker_cache_stats_reported(tiny_dataset):
    _, _, worker = make_parts(tiny_dataset)
    rng = spawn_rng(0, "w")
    worker.run_epoch(tiny_dataset, rng)
    stats = worker.cache_stats()
    assert set(stats) == {
        "encoder.user_embedding.weight", "encoder.item_embedding.weight",
    }
    for table in stats.values():
        assert table["misses"] > 0
        assert 0.0 <= table["hit_rate"] <= 1.0


def test_field_map_validation(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    ps = ParameterServer(model.state_dict(), embedding_names=[])
    with pytest.raises(KeyError):
        Worker(0, model, [0], PSClient(DirectChannel(ps), 0), TrainConfig(),
               field_map={"not.a.table": "users"})
