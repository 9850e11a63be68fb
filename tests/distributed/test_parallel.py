"""Multi-core parallel replay runtime: worker-count determinism.

``parallel_dn_epoch`` with one worker is exactly the sequential
Algorithm 1 epoch; ``parallel_dr_rounds`` keys every target's RNG from
``(seed, target)`` alone, so its result is byte-identical for *any*
worker count — including the in-process reference path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig, domain_negotiation_epoch
from repro.core.param_space import DomainParameterSpace
from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.distributed import parallel_dn_epoch, parallel_dr_rounds
from repro.distributed.parallel import fork_available
from repro.distributed.vector import sync_dn_round_reference, vector_dn_round
from repro.models import build_model
from repro.utils.seeding import spawn_rng

pytestmark = pytest.mark.compile_smoke


def make_dataset(n_domains, seed=0, feature_mode="fixed"):
    specs = tuple(
        DomainSpec(f"P{i}", 80, 0.3 + 0.05 * i) for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name="par", domains=specs, n_users=100, n_items=60,
        latent_dim=4, feature_mode=feature_mode, feature_dim=8, seed=seed,
    ))


def assert_states_equal(reference, candidate):
    assert set(reference) == set(candidate)
    for name in reference:
        assert np.array_equal(reference[name], candidate[name]), name


def test_single_worker_dn_is_the_sequential_epoch():
    dataset = make_dataset(4)
    config = TrainConfig(batch_size=8, inner_steps=2)
    shared = build_model("mlp", dataset, seed=0).state_dict()

    sequential = domain_negotiation_epoch(
        build_model("mlp", dataset, seed=0), dataset,
        {k: v.copy() for k, v in shared.items()}, config, spawn_rng(2, "dn"),
    )
    parallel = parallel_dn_epoch(
        build_model("mlp", dataset, seed=0), dataset,
        {k: v.copy() for k, v in shared.items()}, config, spawn_rng(2, "dn"),
        n_workers=1,
    )
    assert_states_equal(sequential, parallel)


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
@pytest.mark.parametrize("feature_mode", ["fixed", "trainable"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_multi_worker_dn_round_is_one_round_three_ways(n_workers, feature_mode):
    """Forked worker processes, vectorized lanes and the sequential
    in-process reference are the same bulk-synchronous DN round, bit for
    bit — on dense-only and on embedding-table (row-cache) models."""
    dataset = make_dataset(5, feature_mode=feature_mode)
    config = TrainConfig(batch_size=8, inner_steps=2)
    shared = build_model("mlp", dataset, seed=0).state_dict()

    def run(dn_round):
        return dn_round(
            build_model("mlp", dataset, seed=0), dataset,
            {k: v.copy() for k, v in shared.items()}, config,
            spawn_rng(5, "dn"), n_workers=n_workers,
        )

    reference = run(sync_dn_round_reference)
    assert_states_equal(reference, run(parallel_dn_epoch))
    assert_states_equal(reference, run(vector_dn_round))
    # ... and it is a genuinely different trajectory from one worker's.
    sequential = run(lambda *args, n_workers: parallel_dn_epoch(
        *args, n_workers=1))
    assert any(
        not np.array_equal(reference[name], sequential[name])
        for name in reference
    )


def test_dr_rounds_worker_count_invariant():
    dataset = make_dataset(4)
    config = TrainConfig(batch_size=8, sample_k=1, dr_steps=2)

    def run(n_workers):
        model = build_model("mlp", dataset, seed=0)
        space = DomainParameterSpace(model, dataset.n_domains)
        return parallel_dr_rounds(model, dataset, space, config, seed=13,
                                  n_workers=n_workers)

    reference = run(1)
    fanned = run(2)
    assert set(reference) == set(fanned)
    for target in reference:
        assert_states_equal(reference[target], fanned[target])
