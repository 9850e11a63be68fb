"""DomainParameterSpace layouts: clustered semantics + pinned defaults.

A :class:`ClusterPlan` lays out the delta plane; the default identity
plan (every domain its own cluster, no heads) is one delta per domain,
and its training results are pinned to literal digests so that a change
to the storage cannot move them unnoticed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MAMDR,
    ClusterPlan,
    DomainGroup,
    DomainParameterSpace,
    plan_clusters,
    train_space,
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
from repro.online import EventStream, StreamConfig
from repro.utils.seeding import spawn_rng

import tests.core.test_algorithm3_single_source as alg3
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable", n_domains=4)


def clustered_space(model, plan):
    return DomainParameterSpace(model, plan.n_domains, plan=plan)


# ----------------------------------------------------------------------
# DomainGroup / space structure
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
    groups = DomainParameterSpace(model, 4).groups()
    assert [g.domains for g in groups] == [(0,), (1,), (2,), (3,)]
    assert [g.representative for g in groups] == [0, 1, 2, 3]


def test_clustered_store_groups_tail_then_heads(dataset):
    model = build_model("mlp", dataset, seed=0)
    plan = ClusterPlan(
        assignments=(0, 0, 1, 1), n_clusters=2, head_domains={1},
    )
    groups = clustered_space(model, plan).groups()
    # cluster-tail groups first (sorted by cluster), then head singletons
    assert [(g.kind, g.domains) for g in groups] == [
        ("cluster", (0,)), ("cluster", (2, 3)), ("domain", (1,)),
    ]
    assert groups[1].representative == 2


def test_clustered_store_requires_plan(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(TypeError):
        DomainParameterSpace(model, 4, plan=[0, 0, 1, 1])


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
        space.combined(3), state_scale(space.shared, 1.9), atol=1e-12
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
    space = DomainParameterSpace(model, 4)
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
    dense = DomainParameterSpace(model, 4)
    two = clustered_space(
        model, ClusterPlan(assignments=(0, 0, 1, 1), n_clusters=2),
    )
    assert two.nbytes() == dense.nbytes() / 2
    assert len(two.groups()) == 2


def test_clustered_store_is_a_fraction_of_dense_at_1000_domains():
    """A sparse-tail 1 000-domain preset under 64 clusters: far fewer work
    units and a delta plane that does not scale with n_domains; the
    identity plan (one delta per domain) is the dense side."""
    sparse = taobao_sim(1000, total_samples=12000, n_users=2000,
                        n_items=1000, min_domain_samples=18)
    model = build_model("mlp", sparse, seed=0)
    dense = DomainParameterSpace(model, sparse.n_domains)
    clustered = clustered_space(
        model, plan_clusters(sparse, n_clusters=64, seed=0, head_fraction=0.01),
    )
    assert len(clustered.groups()) < len(dense.groups()) / 4
    assert clustered.nbytes() < dense.nbytes() / 4


def test_space_rejects_mismatched_store(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(ValueError, match="plan covers"):
        DomainParameterSpace(model, 4, plan=ClusterPlan.identity(3))


# ----------------------------------------------------------------------
# The default identity plan, pinned across commits
# ----------------------------------------------------------------------
# test_algorithm3_single_source compares every call site with a reference
# that trains through the same space, so a storage change moves both
# sides at once.  These digests of its scenario were computed with the
# former dense one-dict-per-domain backend and must never move.
PINNED_DIGESTS = {
    "train_space":
        "af6fef1476aa87e50d7382792569be5276532ec83795a649b9c5439c3d44ec7d",
    "mamdr_fit":
        "b63b44d439cf4cdd12ae6d35f7d845892bc67d9f14a0214084d2b1d371def88a",
}


@pytest.fixture(scope="module")
def alg3_stream():
    return EventStream(StreamConfig(
        n_domains=alg3.N_DOMAINS, n_users=120, n_items=80, latent_dim=6,
        n_windows=3, window_events=180, drift_rate=0.2, seed=0,
    ))


@pytest.fixture(scope="module")
def alg3_dataset(alg3_stream):
    return alg3.make_trainer(alg3_stream).window_dataset()


def test_default_space_matches_pinned_digests(alg3_stream, alg3_dataset):
    space = train_space(alg3.make_model(alg3_stream), alg3_dataset,
                        alg3.CONFIG, spawn_rng(alg3.SEED, "scenario"))
    bank = MAMDR().fit(alg3.make_model(alg3_stream), alg3_dataset,
                       alg3.CONFIG, seed=alg3.SEED)
    assert {
        "train_space": alg3.space_digest(space),
        "mamdr_fit": alg3.bank_digest(bank),
    } == PINNED_DIGESTS


def test_real_plan_training_runs_and_evaluates(dataset, fast_config):
    """A genuinely merged plan trains end-to-end and serves every domain."""
    model = build_model("mlp", dataset, seed=1)
    plan = plan_clusters(dataset, n_clusters=2, seed=0, head_fraction=0.25)
    bank = MAMDR(plan=plan).fit(model, dataset, fast_config, seed=3)
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
    # identity-plan spaces return the dataset untouched
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


def test_materialize_does_not_leak_internal_views(dataset):
    """Mutating a materialized state must not corrupt the space."""
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    state = space.combined(0)
    before = clone_state(space.delta(0))
    for value in state.values():
        value += 123.0
    assert state_allclose(space.delta(0), before)
