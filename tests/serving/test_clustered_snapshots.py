"""Snapshot publishing through a clustered parameter space.

The COW contract at scale: publishing a clustered space materializes one
state per delta-sharing *group* (not per domain), tail members of a
cluster literally share the state object, and hot-swap/rollback behave
exactly as with the default one-delta-per-domain layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterPlan, DomainParameterSpace
from repro.models import build_model
from repro.nn.state import state_allclose, state_scale
from repro.serving import Predictor, SnapshotStore

from tests.conftest import make_tiny_dataset

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable", n_domains=4)


@pytest.fixture()
def space(dataset):
    """Two clusters of two; domain 0 is a head with its own residual."""
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(
        assignments=(0, 0, 1, 1), n_clusters=2, head_domains={0},
    )
    space = DomainParameterSpace(model, dataset.n_domains, plan=plan)
    # cluster 1 carries a shared delta; cluster 0's tail stays at zero
    space.apply_delta(space.groups()[1], state_scale(space.shared, 0.5))
    space.set_delta(0, state_scale(space.shared, 0.25))
    return space


def test_publish_matches_materialization(space):
    snapshot = SnapshotStore().publish(space)
    for domain in range(space.n_domains):
        assert state_allclose(
            dict(snapshot.state_for(domain)), dict(space.combined(domain))
        )


def test_tail_members_share_one_state_object(space):
    snapshot = SnapshotStore().publish(space)
    # cluster 1's tail (domains 2, 3) share every array
    for name, value in snapshot.state_for(2).items():
        assert value is snapshot.state_for(3)[name]
    stats = snapshot.cow_stats()
    # one state per group: c0 tail, c1 tail, head d0
    assert stats["unique_states"] == 3


def test_zero_delta_cluster_aliases_shared(space):
    snapshot = SnapshotStore().publish(space)
    shared = snapshot.default_state
    # domain 1 (cluster 0 tail, all-zero delta) aliases θ_S entirely
    for name, value in snapshot.state_for(1).items():
        assert value is shared[name]
    # diverged states are frozen copies, not live training arrays
    for value in snapshot.state_for(2).values():
        assert not value.flags.writeable


def test_copied_bytes_charge_each_unique_state_once(space):
    snapshot = SnapshotStore().publish(space)
    stats = snapshot.cow_stats()
    shared = snapshot.default_state
    # expected: every non-aliased array of every *unique* state, once —
    # the cluster state is not charged once per tail member
    unique = {
        id(value): value.nbytes
        for domain in range(space.n_domains)
        for name, value in snapshot.state_for(domain).items()
        if value is not shared[name]
    }
    assert stats["copied_bytes"] == sum(unique.values()) > 0


def test_hot_swap_and_rollback_through_clustered_store(space, dataset):
    store = SnapshotStore()
    predictor = Predictor(build_model("mlp", dataset, seed=0), store)
    first = store.publish(space)
    users = np.array([0, 1, 2], dtype=np.int64)
    items = np.array([0, 1, 2], dtype=np.int64)
    before = predictor.predict_batch(users, items, 2)

    # training advances the cluster delta; republish = hot swap
    space.apply_delta(space.groups()[1], state_scale(space.shared, 0.9))
    second = store.publish(space)
    assert second.version == first.version + 1
    after = predictor.predict_batch(users, items, 2)
    assert not np.array_equal(before, after)

    # rollback restores the old scores bit for bit
    store.rollback(first.version)
    rolled = predictor.predict_batch(users, items, 2)
    np.testing.assert_array_equal(rolled, before)


def test_serving_parity_with_offline_materialization(space, dataset):
    store = SnapshotStore()
    predictor = Predictor(build_model("mlp", dataset, seed=0), store)
    store.publish(space)
    probe = build_model("mlp", dataset, seed=0)
    from repro.data import sample_batch
    from repro.utils.seeding import spawn_rng

    rng = spawn_rng(0, "clustered-parity")
    for domain in range(dataset.n_domains):
        table = dataset.domain(domain).test
        batch = sample_batch(table, domain, min(16, len(table)), rng)
        served = predictor.predict_batch(batch.users, batch.items, domain)
        space.load_combined(probe, domain)
        np.testing.assert_array_equal(served, probe.predict(batch))
