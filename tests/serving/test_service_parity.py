"""Serving parity: the online path is bit-identical to offline scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainParameterSpace
from repro.models import build_model
from repro.serving import Predictor, SnapshotStore
from repro.utils.seeding import spawn_rng

from tests.conftest import make_tiny_dataset

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable")


def make_space(model, n_domains, seed=7, scale=0.05):
    """A parameter space with distinct non-zero deltas per domain."""
    rng = spawn_rng(seed, "serving-parity", "deltas")
    space = DomainParameterSpace(model, n_domains)
    for domain in range(n_domains):
        space.apply_delta(domain, {
            name: rng.normal(scale=scale, size=value.shape)
            for name, value in space.shared.items()
        })
    return space


def make_queries(dataset, n=24, seed=3):
    rng = spawn_rng(seed, "serving-parity", "queries")
    users = rng.integers(0, dataset.n_users, size=n).astype(np.int64)
    items = rng.integers(0, dataset.n_items, size=n).astype(np.int64)
    return users, items


def offline_scores(dataset, space, users, items, domain, seed=0):
    """Reference path: ``load_combined`` into a fresh model, then forward."""
    from repro.data.batching import Batch

    model = build_model("mlp", dataset, seed=seed)
    space.load_combined(model, domain)
    batch = Batch(users, items, np.zeros(len(users)), domain)
    return model.predict(batch)


def test_predict_batch_bit_identical_per_domain(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    predictor = Predictor(model, SnapshotStore())
    predictor._store.publish(space)
    users, items = make_queries(dataset)
    for domain in range(dataset.n_domains):
        served = predictor.predict_batch(users, items, domain)
        expected = offline_scores(dataset, space, users, items, domain)
        np.testing.assert_array_equal(served, expected)


def test_single_predict_matches_batch_path(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    predictor = Predictor(model, SnapshotStore())
    predictor._store.publish(space)
    users, items = make_queries(dataset, n=4)
    expected = offline_scores(dataset, space, users, items, 1)
    for position in range(len(users)):
        assert predictor.predict(
            users[position], items[position], 1
        ) == expected[position]


def test_full_path_equals_row_path(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    store = SnapshotStore()
    store.publish(space)
    row = Predictor(model, store)
    full = Predictor(model, store, field_map={})
    assert row.field_map and not full.field_map
    empty = np.empty(0, dtype=np.int64)
    for users, items in (make_queries(dataset), (empty, empty)):
        for domain in range(dataset.n_domains):
            np.testing.assert_array_equal(
                row.predict_batch(users, items, domain),
                full.predict_batch(users, items, domain),
            )


def test_parity_immediately_after_hot_reload(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    store = SnapshotStore()
    predictor = Predictor(model, store)
    store.publish(space)
    users, items = make_queries(dataset)
    predictor.predict_batch(users, items, 0)  # warm version 1 state + caches

    # Training advanced: new shared weights and deltas, hot reload.
    space.set_shared({n: v + 0.125 for n, v in space.shared.items()})
    space.apply_delta(2, {
        n: v * 2.0 for n, v in space.delta(2).items()
    })
    store.publish(space)
    assert store.version == 2
    for domain in range(dataset.n_domains):
        served = predictor.predict_batch(users, items, domain)
        expected = offline_scores(dataset, space, users, items, domain)
        np.testing.assert_array_equal(served, expected)


def test_fixed_feature_models_serve_via_full_path(dataset):
    """Models without id-embedding tables fall back to full-state loads."""
    fixed = make_tiny_dataset("fixed")
    model = build_model("mlp", fixed, seed=0)
    space = make_space(model, fixed.n_domains)
    predictor = Predictor(model, SnapshotStore())
    assert predictor.field_map == {}
    predictor._store.publish(space)
    users, items = make_queries(fixed)
    for domain in range(fixed.n_domains):
        served = predictor.predict_batch(users, items, domain)
        offline_model = build_model("mlp", fixed, seed=0)
        space.load_combined(offline_model, domain)
        from repro.data.batching import Batch

        expected = offline_model.predict(
            Batch(users, items, np.zeros(len(users)), domain)
        )
        np.testing.assert_array_equal(served, expected)


def test_unknown_field_map_parameter_rejected(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(KeyError, match="unknown parameters"):
        Predictor(model, SnapshotStore(), field_map={"nope.weight": "users"})
