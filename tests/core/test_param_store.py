"""DomainParameterSpace layout: θ_S plus one delta per domain.

Its training results are pinned to literal digests by
``tests/test_determinism_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MAMDR, DomainParameterSpace
from repro.models import build_model
from repro.nn.state import clone_state, state_allclose, state_scale
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable", n_domains=4)


def test_training_plan_is_the_dataset_and_its_domains(dataset):
    model = build_model("mlp", dataset, seed=0)
    view, domains = DomainParameterSpace(model, 4).training_plan(dataset)
    assert view is dataset
    assert domains == (0, 1, 2, 3)


def test_space_rejects_mismatched_store(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(ValueError, match="dataset has 4 domains"):
        DomainParameterSpace(model, 3).training_plan(dataset)


def test_plan_keyword_is_rejected(dataset):
    model = build_model("mlp", dataset, seed=0)
    with pytest.raises(TypeError):
        DomainParameterSpace(model, 4, plan=None)
    with pytest.raises(TypeError):
        MAMDR(plan=None)


def test_apply_delta_copies_into_one_domain(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    delta = state_scale(space.shared, 0.5)
    space.apply_delta(2, delta)
    assert state_allclose(space.delta(2), delta)
    assert space.delta(2) is not delta
    # the other domains are untouched
    for domain in (0, 1, 3):
        assert all(np.all(v == 0.0) for v in space.delta(domain).values())
    # frozen benchmark callers read a domain's delta as group_delta
    assert space.group_delta(2) is space.delta(2)


def test_unknown_domain_rejected_by_every_accessor(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    zero = clone_state(space.delta(0))
    for domain in (-1, 4, 9):
        with pytest.raises(KeyError):
            space.delta(domain)
        with pytest.raises(KeyError):
            space.combined(domain)
        with pytest.raises(KeyError):
            space.apply_delta(domain, zero)


# ----------------------------------------------------------------------
# COW materialization and accounting
# ----------------------------------------------------------------------
def test_cow_states_alias_shared_for_zero_deltas(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    name = next(iter(space.shared))
    delta = clone_state(space.delta(1))
    delta[name] = delta[name] + 0.25
    space.apply_delta(1, delta)
    states = space.cow_states(space.shared)
    assert list(states) == [0, 1, 2, 3]
    for domain, state in states.items():
        for key, value in state.items():
            if domain == 1 and key == name:
                assert value is not space.shared[key]
                np.testing.assert_array_equal(value, space.combined(1)[key])
            else:
                assert value is space.shared[key]


def test_nbytes_counts_one_delta_per_domain(dataset):
    model = build_model("mlp", dataset, seed=0)
    shared_bytes = sum(v.nbytes for v in model.state_dict().values())
    assert DomainParameterSpace(model, 4).nbytes() == 4 * shared_bytes
    assert DomainParameterSpace(model, 2).nbytes() == 2 * shared_bytes


def test_all_combined_states_are_independent(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    space.apply_delta(0, state_scale(space.shared, 0.5))
    combined = space.all_combined()
    assert len({id(state) for state in combined.values()}) == 4
    assert state_allclose(combined[0], state_scale(space.shared, 1.5))
    assert state_allclose(combined[1], space.shared)


def test_materialize_does_not_leak_internal_views(dataset):
    """Mutating a materialized state must not corrupt the space."""
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    state = space.combined(0)
    before = clone_state(space.delta(0))
    for value in state.values():
        value += 123.0
    assert state_allclose(space.delta(0), before)
