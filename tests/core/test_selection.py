"""Validation-based model selection utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainParameterSpace
from repro.core.selection import (
    BestTracker,
    PerDomainTracker,
    domain_split_auc,
    finetune_with_selection,
    model_split_auc,
    space_split_auc,
)
from repro.core.trainer import make_inner_optimizer
from repro.models import build_model
from repro.nn.state import state_allclose, state_scale


def test_best_tracker_keeps_maximum():
    tracker = BestTracker()
    assert not tracker.has_best
    assert tracker.update(0.5, {"w": np.array([1.0])})
    assert not tracker.update(0.4, {"w": np.array([2.0])})
    assert tracker.update(0.6, {"w": np.array([3.0])})
    np.testing.assert_allclose(tracker.best["w"], [3.0])
    assert tracker.best_score == 0.6


def test_best_tracker_snapshots_are_copies():
    tracker = BestTracker()
    state = {"w": np.array([1.0])}
    tracker.update(1.0, state)
    state["w"][0] = -5.0
    np.testing.assert_allclose(tracker.best["w"], [1.0])


def test_best_tracker_nested_snapshot():
    tracker = BestTracker()
    nested = ({"w": np.ones(2)}, {0: {"w": np.zeros(2)}})
    tracker.update(1.0, nested)
    shared, deltas = tracker.best
    np.testing.assert_allclose(shared["w"], 1.0)
    np.testing.assert_allclose(deltas[0]["w"], 0.0)
    with pytest.raises(TypeError):
        tracker.update(2.0, object())


def test_split_auc_helpers_consistent(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    per_domain = [
        domain_split_auc(model, d) for d in tiny_dataset
    ]
    assert model_split_auc(model, tiny_dataset) == pytest.approx(
        float(np.mean(per_domain))
    )


def test_space_split_auc_uses_combined(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, tiny_dataset.n_domains)
    baseline = space_split_auc(model, tiny_dataset, space)
    assert 0.0 <= baseline <= 1.0
    # destroying domain 0's delta only changes domain 0's contribution
    space.apply_delta(0, state_scale(space.shared, -1.0))  # Θ_0 becomes zero
    ruined = space_split_auc(model, tiny_dataset, space)
    assert ruined != baseline


def test_per_domain_tracker_selects_independently(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, tiny_dataset.n_domains)
    tracker = PerDomainTracker(tiny_dataset.n_domains)
    tracker.update_from_space(model, tiny_dataset, space)
    states = tracker.best_states()
    assert set(states) == set(range(tiny_dataset.n_domains))
    for state in states.values():
        assert state_allclose(state, space.shared)


def test_finetune_with_selection_never_worse_than_start(tiny_dataset,
                                                        fast_config):
    model = build_model("mlp", tiny_dataset, seed=0)
    domain = tiny_dataset.domain(0)
    start_auc = domain_split_auc(model, domain)
    optimizer = make_inner_optimizer(model, fast_config)
    rng = np.random.default_rng(0)
    best = finetune_with_selection(model, domain, optimizer, rng,
                                   batch_size=32, max_steps=6)
    model.load_state_dict(best)
    assert domain_split_auc(model, domain) >= start_auc
