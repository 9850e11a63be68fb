"""Domain clustering: seeded determinism, plan structure, feature probe."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import domain_features, kmeans, plan_clusters
from repro.core.param_space import ClusterPlan
from repro.models import build_model

from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable", n_domains=8)


@pytest.fixture(scope="module")
def fixed_dataset():
    return make_tiny_dataset("fixed", n_domains=8)


def test_same_seed_same_plan(dataset):
    first = plan_clusters(dataset, n_clusters=3, seed=7)
    second = plan_clusters(dataset, n_clusters=3, seed=7)
    assert first == second
    assert first.assignments == second.assignments
    assert first.head_domains == second.head_domains


def test_plan_is_process_order_independent(dataset):
    """Cluster assignment must be a pure function of (dataset, seed) —
    building other plans in between (as different workers would) cannot
    perturb it."""
    baseline = plan_clusters(dataset, n_clusters=3, seed=7)
    plan_clusters(dataset, n_clusters=4, seed=99)   # unrelated draw
    plan_clusters(dataset, n_clusters=2, seed=1)
    again = plan_clusters(dataset, n_clusters=3, seed=7)
    assert again == baseline


def test_different_seeds_may_differ_but_stay_valid(dataset):
    for seed in range(4):
        plan = plan_clusters(dataset, n_clusters=3, seed=seed)
        assert plan.n_domains == dataset.n_domains
        assert set(plan.assignments) == set(range(plan.n_clusters))


def test_head_fraction_promotes_largest_domains(dataset):
    plan = plan_clusters(dataset, n_clusters=3, seed=0, head_fraction=0.25)
    assert len(plan.head_domains) == 2
    sizes = dataset.domain_sizes()
    floor = min(sizes[d] for d in plan.head_domains)
    tail = [d for d in range(dataset.n_domains) if d not in plan.head_domains]
    assert all(sizes[d] <= floor for d in tail)


def test_head_min_samples_filters_small_domains(dataset):
    sizes = dataset.domain_sizes()
    plan = plan_clusters(
        dataset, n_clusters=3, seed=0, head_fraction=1.0,
        head_min_samples=int(max(sizes)),
    )
    assert all(sizes[d] >= max(sizes) for d in plan.head_domains)


def test_gradient_probe_changes_features_not_determinism(dataset):
    model = build_model("mlp", dataset, seed=0)
    plain = domain_features(dataset, seed=3)
    probed = domain_features(dataset, model=model, seed=3)
    assert probed.shape[0] == plain.shape[0] == dataset.n_domains
    assert probed.shape[1] > plain.shape[1]
    again = domain_features(dataset, model=model, seed=3)
    np.testing.assert_array_equal(probed, again)


def test_fixed_features_extend_descriptor(fixed_dataset):
    features = domain_features(fixed_dataset)
    plain_width = domain_features(make_tiny_dataset("trainable", 8)).shape[1]
    assert features.shape[1] == \
        plain_width + fixed_dataset.item_features.shape[1]


def test_kmeans_deterministic_and_total():
    from repro.utils.seeding import spawn_rng

    features = spawn_rng(0, "test", "kmeans").standard_normal((40, 5))
    first = kmeans(features, 6, seed=11)
    second = kmeans(features, 6, seed=11)
    np.testing.assert_array_equal(first, second)
    assert first.shape == (40,)
    assert set(first) <= set(range(6))


def test_kmeans_degenerate_cases():
    features = np.zeros((5, 3))
    np.testing.assert_array_equal(kmeans(features, 5, seed=0), np.arange(5))
    with pytest.raises(ValueError):
        kmeans(features, 0, seed=0)


def test_cluster_plan_validation():
    with pytest.raises(ValueError):
        ClusterPlan(assignments=(), n_clusters=1)
    with pytest.raises(ValueError):
        ClusterPlan(assignments=(0, 1), n_clusters=0)
    with pytest.raises(ValueError):
        ClusterPlan(assignments=(0, 2), n_clusters=2)   # id out of range
    with pytest.raises(ValueError):
        ClusterPlan(assignments=(0, 0), n_clusters=1, head_domains={5})
    plan = ClusterPlan(assignments=(0, 1, 0), n_clusters=2, head_domains={2})
    assert plan.cluster_of(2) == 0
    assert plan.n_domains == 3
    assert plan.head_domains == frozenset({2})
