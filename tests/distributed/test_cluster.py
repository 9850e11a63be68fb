"""Simulated PS-Worker cluster: sharding, equivalence, convergence."""

from __future__ import annotations

import pytest

from repro.distributed import (
    SimulatedCluster,
    embedding_field_map,
    embedding_parameter_names,
    shard_domains,
)
from repro.metrics import evaluate_bank
from repro.models import build_model


def test_shard_domains_balanced(tiny_dataset):
    shards = shard_domains(tiny_dataset, 2)
    assert sorted(i for shard in shards for i in shard) == [0, 1, 2]
    loads = [
        sum(len(tiny_dataset.domain(i).train) for i in shard)
        for shard in shards
    ]
    assert max(loads) - min(loads) <= max(
        len(d.train) for d in tiny_dataset.domains
    )
    with pytest.raises(ValueError):
        shard_domains(tiny_dataset, 0)


def test_embedding_discovery(tiny_dataset, tiny_fixed_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    names = embedding_parameter_names(model)
    assert names == [
        "encoder.user_embedding.weight",
        "encoder.item_embedding.weight",
    ]
    mapping = embedding_field_map(model)
    assert mapping["encoder.user_embedding.weight"] == "users"
    assert mapping["encoder.item_embedding.weight"] == "items"

    fixed_model = build_model("mlp", tiny_fixed_dataset, seed=0)
    assert embedding_parameter_names(fixed_model) == []


def test_single_worker_trains(tiny_dataset, fast_config):
    cluster = SimulatedCluster(n_workers=1, mode="async")
    bank = cluster.run(
        lambda wid: build_model("mlp", tiny_dataset, seed=0),
        tiny_dataset, fast_config, seed=1,
    )
    report = evaluate_bank(bank, tiny_dataset)
    assert 0.0 <= report.mean_auc <= 1.0
    stats = cluster.stats()
    assert stats["ps_version"] == fast_config.epochs


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_multi_worker_both_modes(mode, tiny_dataset, fast_config):
    cluster = SimulatedCluster(n_workers=3, mode=mode)
    bank = cluster.run(
        lambda wid: build_model("mlp", tiny_dataset, seed=0),
        tiny_dataset, fast_config, seed=1,
    )
    report = evaluate_bank(bank, tiny_dataset)
    assert 0.0 <= report.mean_auc <= 1.0
    stats = cluster.stats()
    # one push per worker per epoch
    assert stats["ps_version"] == fast_config.epochs * len(cluster.workers)
    for worker_stats in stats["workers"].values():
        for table_stats in worker_stats.values():
            assert table_stats["hits"] + table_stats["misses"] > 0


def test_cluster_with_dr_returns_per_domain_bank(tiny_dataset, fast_config):
    cluster = SimulatedCluster(n_workers=2)
    bank = cluster.run(
        lambda wid: build_model("mlp", tiny_dataset, seed=0),
        tiny_dataset, fast_config, seed=1, use_dr=True,
    )
    assert set(bank.domain_states) == set(range(tiny_dataset.n_domains))


def test_cluster_matches_quality_of_local_training(tiny_dataset, fast_config):
    """Distributed DN must land in the same quality band as local DN."""
    from repro.core import DomainNegotiation

    config = fast_config.updated(epochs=4, inner_steps=None)
    local_model = build_model("mlp", tiny_dataset, seed=0)
    local = evaluate_bank(
        DomainNegotiation().fit(local_model, tiny_dataset, config, seed=1),
        tiny_dataset,
    ).mean_auc

    cluster = SimulatedCluster(n_workers=2)
    distributed = evaluate_bank(
        cluster.run(lambda wid: build_model("mlp", tiny_dataset, seed=0),
                    tiny_dataset, config, seed=1),
        tiny_dataset,
    ).mean_auc
    assert abs(local - distributed) < 0.12


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        SimulatedCluster(mode="bulk")


def test_fixed_feature_dataset_has_no_cache_traffic(tiny_fixed_dataset,
                                                    fast_config):
    cluster = SimulatedCluster(n_workers=2)
    cluster.run(
        lambda wid: build_model("mlp", tiny_fixed_dataset, seed=0),
        tiny_fixed_dataset, fast_config, seed=1,
    )
    stats = cluster.stats()
    assert stats["ps_pulls"]["embedding_rows"] == 0
