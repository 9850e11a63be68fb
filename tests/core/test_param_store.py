"""DomainParamStore backends: clustered semantics + dense parity.

The acceptance bar for the storage redesign: the dense backend is
bitwise-identical to the historical per-domain dict, and the clustered
backend under an *identity* plan (every domain its own cluster, no
heads) reproduces the dense arithmetic exactly — same trained states,
same AUC to 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MAMDR,
    ClusteredDomainStore,
    ClusterPlan,
    DenseDomainStore,
    DomainGroup,
    DomainParameterSpace,
    identity_plan,
    plan_clusters,
)
from repro.data import taobao_sim
from repro.metrics import evaluate_bank
from repro.models import build_model
from repro.nn.state import (
    clone_state,
    state_allclose,
    state_scale,
    zeros_like_state,
)

from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable", n_domains=4)


def clustered_space(model, plan):
    return DomainParameterSpace(
        model, plan.n_domains,
        store=lambda shared: ClusteredDomainStore(shared, plan),
    )


# ----------------------------------------------------------------------
# DomainGroup / store structure
# ----------------------------------------------------------------------
def test_domain_group_validation():
    with pytest.raises(ValueError):
        DomainGroup(kind="blob", key="x", domains=(0,), representative=0)
    with pytest.raises(ValueError):
        DomainGroup(kind="cluster", key="x", domains=(), representative=0)
    with pytest.raises(ValueError):
        DomainGroup(kind="cluster", key="x", domains=(1, 2), representative=0)


def test_dense_store_groups_are_singletons_in_order(dataset):
    model = build_model("mlp", dataset, seed=0)
    store = DenseDomainStore(model.state_dict(), 4)
    groups = store.groups()
    assert [g.domains for g in groups] == [(0,), (1,), (2,), (3,)]
    assert all(g.kind == "domain" for g in groups)


def test_clustered_store_groups_tail_then_heads(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(
        assignments=(0, 0, 1, 1), n_clusters=2, head_domains={1},
    )
    store = ClusteredDomainStore(model.state_dict(), plan)
    groups = store.groups()
    # cluster-tail groups first (sorted by cluster), then head singletons
    assert [(g.kind, g.domains) for g in groups] == [
        ("cluster", (0,)), ("cluster", (2, 3)), ("domain", (1,)),
    ]
    assert groups[1].representative == 2


def test_clustered_store_requires_plan(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(TypeError):
        ClusteredDomainStore(model.state_dict(), [0, 0, 1, 1])


# ----------------------------------------------------------------------
# Delta semantics: cluster row + head residual
# ----------------------------------------------------------------------
def test_tail_domains_share_cluster_delta(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(assignments=(0, 0, 1, 1), n_clusters=2)
    space = clustered_space(model, plan)
    cluster_group = space.groups()[0]
    delta = state_scale(space.shared, 0.5)
    space.apply_delta(cluster_group, delta)
    # every member of cluster 0 sees the same effective delta ...
    assert state_allclose(space.delta(0), delta)
    assert state_allclose(space.delta(1), delta)
    # ... and the other cluster is untouched
    assert all(np.all(v == 0.0) for v in space.delta(2).values())


def test_head_domain_keeps_residual_on_top_of_cluster(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(
        assignments=(0, 0, 0, 0), n_clusters=1, head_domains={3},
    )
    space = clustered_space(model, plan)
    cluster_group, head_group = space.groups()
    cluster_delta = state_scale(space.shared, 0.5)
    space.apply_delta(cluster_group, cluster_delta)
    head_delta = state_scale(space.shared, 0.8)
    space.apply_delta(head_group, head_delta)
    # the head's *effective* delta is exactly what was applied ...
    assert state_allclose(space.delta(3), head_delta, atol=1e-12)
    # ... stored internally as a residual against the cluster row, so a
    # later cluster update shifts the head by the same amount
    space.apply_delta(cluster_group, state_scale(space.shared, 0.6))
    assert state_allclose(
        space.delta(3), state_scale(space.shared, 0.9), atol=1e-12
    )
    assert state_allclose(
        space.materialize(3), state_scale(space.shared, 1.9), atol=1e-12
    )


def test_apply_delta_to_shared_tail_member_is_rejected(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(assignments=(0, 0, 1, 1), n_clusters=2)
    space = clustered_space(model, plan)
    with pytest.raises(ValueError, match="tail member"):
        space.set_delta(1, zeros_like_state(space.shared))
    # a sole tail member IS addressable by index (it owns the row)
    solo = ClusterPlan(
        assignments=(0, 0, 0, 1), n_clusters=2, head_domains=frozenset(),
    )
    solo_space = clustered_space(build_model("mlp", dataset, seed=0), solo)
    solo_space.set_delta(3, state_scale(solo_space.shared, 0.25))
    assert state_allclose(
        solo_space.delta(3), state_scale(solo_space.shared, 0.25)
    )


def test_unknown_domain_rejected_by_clustered_store(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = clustered_space(model, identity_plan(4))
    with pytest.raises(KeyError):
        space.delta(9)


# ----------------------------------------------------------------------
# COW materialization and accounting
# ----------------------------------------------------------------------
def test_cow_states_yield_one_state_per_group(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(
        assignments=(0, 0, 1, 1), n_clusters=2, head_domains={0},
    )
    space = clustered_space(model, plan)
    entries = list(space.cow_states(space.shared))
    assert [domains for domains, _ in entries] == [(1,), (2, 3), (0,)]
    # all-zero deltas: every entry aliases the shared arrays
    for _, state in entries:
        assert all(v is space.shared[n] for n, v in state.items())


def test_clustered_nbytes_scales_with_groups_not_domains(dataset):
    model = build_model("mlp", dataset, seed=0)
    dense = DenseDomainStore(model.state_dict(), 4)
    two = ClusteredDomainStore(
        model.state_dict(),
        ClusterPlan(assignments=(0, 0, 1, 1), n_clusters=2),
    )
    assert two.nbytes() == dense.nbytes() / 2
    stats = two.stats()
    assert stats["backend"] == "ClusteredDomainStore"
    assert stats["populated_clusters"] == 2


def test_clustered_store_is_a_fraction_of_dense_at_1000_domains():
    """A sparse-tail 1 000-domain preset under 64 clusters: far fewer work
    units and a delta plane that does not scale with n_domains."""
    sparse = taobao_sim(1000, total_samples=12000, n_users=2000,
                        n_items=1000, min_domain_samples=18)
    state = build_model("mlp", sparse, seed=0).state_dict()
    dense = DenseDomainStore(state, sparse.n_domains)
    clustered = ClusteredDomainStore(
        state, plan_clusters(sparse, n_clusters=64, seed=0, head_fraction=0.01),
    )
    assert len(clustered.groups()) < len(dense.groups()) / 4
    assert clustered.nbytes() < dense.nbytes() / 4


def test_space_rejects_mismatched_store(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(ValueError, match="store covers"):
        DomainParameterSpace(
            model, 4,
            store=lambda shared: ClusteredDomainStore(
                shared, identity_plan(3)
            ),
        )


# ----------------------------------------------------------------------
# Backend parity: identity-plan clustered == dense, bit for bit
# ----------------------------------------------------------------------
def test_identity_plan_training_is_bitwise_dense(dataset, fast_config):
    dense_model = build_model("mlp", dataset, seed=1)
    dense_bank = MAMDR().fit(dense_model, dataset, fast_config, seed=3)

    clustered_model = build_model("mlp", dataset, seed=1)
    store = lambda shared: ClusteredDomainStore(  # noqa: E731
        shared, identity_plan(dataset.n_domains)
    )
    clustered_bank = MAMDR(store=store).fit(
        clustered_model, dataset, fast_config, seed=3
    )

    for domain in range(dataset.n_domains):
        lhs = dense_bank.state_for(domain)
        rhs = clustered_bank.state_for(domain)
        for name in lhs:
            np.testing.assert_array_equal(lhs[name], rhs[name])

    dense_auc = evaluate_bank(dense_bank, dataset).mean_auc
    clustered_auc = evaluate_bank(clustered_bank, dataset).mean_auc
    assert abs(dense_auc - clustered_auc) < 1e-9


def test_real_plan_training_runs_and_evaluates(dataset, fast_config):
    """A genuinely merged plan trains end-to-end and serves every domain."""
    model = build_model("mlp", dataset, seed=1)
    plan = plan_clusters(dataset, n_clusters=2, seed=0, head_fraction=0.25)
    bank = MAMDR(
        store=lambda shared: ClusteredDomainStore(shared, plan)
    ).fit(model, dataset, fast_config, seed=3)
    assert set(bank.domain_states) == set(range(dataset.n_domains))
    report = evaluate_bank(bank, dataset)
    assert 0.0 <= report.mean_auc <= 1.0


def test_training_plan_merges_cluster_view(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(assignments=(0, 0, 1, 1), n_clusters=2)
    space = clustered_space(model, plan)
    view, groups = space.training_plan(dataset)
    assert view.n_domains == len(groups) == 2
    assert view.name.endswith("#groups")
    for index, group in enumerate(groups):
        merged = view.domain(index).train
        assert len(merged) == sum(
            len(dataset.domain(d).train) for d in group.domains
        )
    # dense spaces return the dataset untouched
    dense_space = DomainParameterSpace(model, dataset.n_domains)
    view, groups = dense_space.training_plan(dataset)
    assert view is dataset
    assert len(groups) == dataset.n_domains


def test_all_combined_shares_state_within_group(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(assignments=(0, 0, 1, 1), n_clusters=2)
    space = clustered_space(model, plan)
    space.apply_delta(space.groups()[0], state_scale(space.shared, 0.5))
    combined = space.all_combined()
    assert combined[0] is combined[1]
    assert combined[2] is combined[3]
    assert combined[0] is not combined[2]
    assert state_allclose(combined[0], state_scale(space.shared, 1.5))


def test_get_is_materialize_alias(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    delta = state_scale(space.shared, 0.25)
    space.set_delta(2, delta)
    assert state_allclose(space.get(2), space.materialize(2))
    assert state_allclose(space.get(2), state_scale(space.shared, 1.25))


def test_materialize_does_not_leak_internal_views(dataset):
    """Mutating a materialized state must not corrupt the store."""
    model = build_model("mlp", dataset, seed=0)
    space = clustered_space(model, identity_plan(4))
    state = space.materialize(0)
    before = clone_state(space.delta(0))
    for value in state.values():
        value += 123.0
    assert state_allclose(space.delta(0), before)
