"""DomainParameterSpace: the Θ = θ_S + θ_i composition (Eq. 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainParameterSpace
from repro.models import build_model
from repro.nn.state import state_allclose, state_scale


def test_initial_deltas_are_zero(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, 3)
    for domain in range(3):
        combined = space.combined(domain)
        assert state_allclose(combined, space.shared)


def test_combined_is_sum(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, 2)
    delta = state_scale(space.shared, 0.5)
    space.apply_delta(1, delta)
    combined = space.combined(1)
    expected = state_scale(space.shared, 1.5)
    assert state_allclose(combined, expected)
    # domain 0 unaffected
    assert state_allclose(space.combined(0), space.shared)


def test_load_and_extract_round_trip(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, 2)
    delta = state_scale(space.shared, 0.1)
    space.apply_delta(0, delta)
    space.load_combined(model, 0)
    extracted = space.extract_delta(model)
    assert state_allclose(extracted, delta, atol=1e-12)

    space.load_shared(model)
    zero = space.extract_delta(model)
    assert all(np.abs(v).max() < 1e-12 for v in zero.values())


def test_set_shared_does_not_alias(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, 1)
    state = model.state_dict()
    space.set_shared(state)
    key = next(iter(state))
    state[key][...] = 777.0
    assert not np.any(space.shared[key] == 777.0)


def test_unknown_domain_rejected(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, 2)
    with pytest.raises(KeyError):
        space.delta(5)
    with pytest.raises(ValueError):
        DomainParameterSpace(model, 0)


def test_all_combined_covers_every_domain(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    space = DomainParameterSpace(model, 4)
    combined = space.all_combined()
    assert set(combined) == {0, 1, 2, 3}
