"""Every caller of the single-sourced loops equals Algorithm 3 spelled out.

``reference_epoch`` below is the kept reference: one MAMDR epoch written
from the two primitives ``domain_negotiation_epoch`` /
``domain_regularization_round`` and nothing else.  One seeded
mini-scenario (two stream windows folded into a window dataset) is
trained through every call site of ``negotiate_shared`` /
``regularize_groups`` / ``mamdr_epoch`` / ``train_space`` and through the
reference, each under the call site's own RNG namespace and optimizer
lifetime, and the SHA-256 over the resulting state bytes must agree.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import (
    MAMDR,
    DomainNegotiation,
    DomainParameterSpace,
    DomainRegularization,
    TrainConfig,
    domain_negotiation_epoch,
    domain_regularization_round,
    make_inner_optimizer,
    train_space,
    train_steps,
)
from repro.core.selection import BestTracker, PerDomainTracker, model_split_auc
from repro.distributed import SimulatedCluster
from repro.models import build_model
from repro.nn.serialization import state_checksum
from repro.online import EventStream, IncrementalTrainer, StreamConfig
from repro.utils.seeding import spawn_rng, stable_seed

SEED = 3
N_DOMAINS = 3
CONFIG = TrainConfig(epochs=2, batch_size=32, inner_steps=2, dr_steps=1,
                     sample_k=1)
assert CONFIG.dn_rounds > 1  # the DN outer loop must actually loop


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream():
    return EventStream(StreamConfig(
        n_domains=N_DOMAINS, n_users=120, n_items=80, latent_dim=6,
        n_windows=3, window_events=180, drift_rate=0.2, seed=0,
    ))


def make_model(stream):
    return build_model("mlp", stream.skeleton_dataset(), seed=0)


def make_trainer(stream, **overrides):
    trainer = IncrementalTrainer(
        make_model(stream), N_DOMAINS, CONFIG, replay_capacity=400,
        holdout_capacity=120, n_users=stream.config.n_users,
        n_items=stream.config.n_items, seed=SEED, **overrides,
    )
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    return trainer


@pytest.fixture(scope="module")
def dataset(stream):
    return make_trainer(stream).window_dataset()


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest(states):
    sha = hashlib.sha256()
    for state in states:
        sha.update(state_checksum(state).encode())
    return sha.hexdigest()


def space_digest(space):
    return digest([space.shared]
                  + [space.combined(d) for d in range(space.n_domains)])


def bank_digest(bank):
    return digest([bank.default_state]
                  + [bank.state_for(d) for d in range(N_DOMAINS)])


# ----------------------------------------------------------------------
# The reference: Algorithm 3 from the two primitives
# ----------------------------------------------------------------------
def reference_dr_sweep(model, view, groups, space, config, rng):
    for position, group in enumerate(groups):
        delta = domain_regularization_round(
            model, view, space, position, config, rng,
            delta=space.group_delta(group),
        )
        space.apply_delta(group, delta)


def reference_epoch(model, view, groups, space, config, rng, optimizer,
                    use_dn=True, use_dr=True):
    if use_dn:
        shared = space.shared
        for _ in range(config.dn_rounds):
            shared = domain_negotiation_epoch(
                model, view, shared, config, rng, optimizer=optimizer
            )
    else:
        shared = domain_negotiation_epoch(
            model, view, space.shared, config.updated(outer_lr=1.0), rng,
            optimizer=optimizer,
        )
    space.set_shared(shared)
    if use_dr:
        reference_dr_sweep(model, view, groups, space, config, rng)


def fresh_space(stream, dataset):
    model = make_model(stream)
    space = DomainParameterSpace(model, dataset.n_domains)
    view, groups = space.training_plan(dataset)
    return model, space, view, groups


# ----------------------------------------------------------------------
# Call sites
# ----------------------------------------------------------------------
def test_train_space(stream, dataset):
    space = train_space(make_model(stream), dataset, CONFIG,
                        spawn_rng(SEED, "scenario"))

    model, reference, view, groups = fresh_space(stream, dataset)
    rng = spawn_rng(SEED, "scenario")
    optimizer = make_inner_optimizer(model, CONFIG)
    for _ in range(CONFIG.epochs):
        reference_epoch(model, view, groups, reference, CONFIG, rng,
                        optimizer)
    assert space_digest(space) == space_digest(reference)


@pytest.mark.parametrize("use_dn, use_dr", [
    (True, True), (True, False), (False, True), (False, False),
])
def test_mamdr_fit(stream, dataset, use_dn, use_dr):
    bank = MAMDR(use_dn=use_dn, use_dr=use_dr).fit(
        make_model(stream), dataset, CONFIG, seed=SEED
    )

    model, space, view, groups = fresh_space(stream, dataset)
    rng = spawn_rng(SEED, "mamdr", dataset.name, use_dn, use_dr)
    optimizer = make_inner_optimizer(model, CONFIG)
    per_domain, shared_best = PerDomainTracker(N_DOMAINS), BestTracker()
    for _ in range(CONFIG.epochs):
        reference_epoch(model, view, groups, space, CONFIG, rng, optimizer,
                        use_dn=use_dn, use_dr=use_dr)
        if use_dr:
            per_domain.update_from_space(model, dataset, space)
        else:
            model.load_state_dict(space.shared)
            shared_best.update(model_split_auc(model, dataset), space.shared)
    if use_dr:
        expected = [space.shared] + [
            per_domain.best_states()[d] for d in range(N_DOMAINS)
        ]
    else:
        expected = [shared_best.best] * (1 + N_DOMAINS)
    assert bank_digest(bank) == digest(expected)


def test_domain_negotiation_fit(stream, dataset):
    bank = DomainNegotiation().fit(make_model(stream), dataset, CONFIG,
                                   seed=SEED)

    model = make_model(stream)
    rng = spawn_rng(SEED, "dn", dataset.name)
    optimizer = make_inner_optimizer(model, CONFIG)
    shared, tracker = model.state_dict(), BestTracker()
    for _ in range(CONFIG.epochs):
        for _ in range(CONFIG.dn_rounds):
            shared = domain_negotiation_epoch(
                model, dataset, shared, CONFIG, rng, optimizer=optimizer
            )
        model.load_state_dict(shared)
        tracker.update(model_split_auc(model, dataset), shared)
    assert digest([bank.model.state_dict()]) == digest([tracker.best])


def test_domain_regularization_fit(stream, dataset):
    bank = DomainRegularization().fit(make_model(stream), dataset, CONFIG,
                                      seed=SEED)

    model, space, view, groups = fresh_space(stream, dataset)
    rng = spawn_rng(SEED, "dr", dataset.name)
    optimizer = make_inner_optimizer(model, CONFIG)
    tracker = PerDomainTracker(N_DOMAINS)
    for _ in range(CONFIG.epochs):
        # θ_S by plain alternate training: the live end state, no Eq. 3.
        model.load_state_dict(space.shared)
        order = list(range(view.n_domains))
        rng.shuffle(order)
        for index in order:
            train_steps(model, view.domain(index).train, index, optimizer,
                        rng, CONFIG.batch_size, CONFIG.inner_steps)
        space.set_shared(model.state_dict())
        reference_dr_sweep(model, view, groups, space, CONFIG, rng)
        tracker.update_from_space(model, dataset, space)
    expected = [space.shared] + [
        tracker.best_states()[d] for d in range(N_DOMAINS)
    ]
    assert bank_digest(bank) == digest(expected)


def test_incremental_trainer_local(stream, dataset):
    update = make_trainer(stream).update(key=5)

    model, space, view, groups = fresh_space(stream, dataset)
    reference_epoch(model, view, groups, space, CONFIG,
                    spawn_rng(SEED, "online", "update", 5),
                    make_inner_optimizer(model, CONFIG))
    assert digest([update.default_state]
                  + [update.states[d] for d in range(N_DOMAINS)]) \
        == space_digest(space)


def cluster_factory(stream):
    return lambda worker_id: make_model(stream)


def test_incremental_trainer_cluster(stream, dataset):
    update = make_trainer(
        stream, backend="cluster", n_workers=2,
        replica_factory=lambda: make_model(stream),
    ).update(key=5)

    # Only θ_S moves to the cluster (dn_rounds bulk-synchronous rounds);
    # the DR sweep is the same driver-side loop under the update's RNG.
    model, space, view, groups = fresh_space(stream, dataset)
    shared = SimulatedCluster(
        n_workers=2, mode="sync", heartbeat_timeout=None,
    ).run(
        cluster_factory(stream), view,
        CONFIG.updated(epochs=CONFIG.dn_rounds),
        seed=stable_seed(SEED, "online", "cluster", 5),
    ).model.state_dict()
    space.set_shared(shared)
    reference_dr_sweep(model, view, groups, space, CONFIG,
                       spawn_rng(SEED, "online", "update", 5))
    assert digest([update.default_state]
                  + [update.states[d] for d in range(N_DOMAINS)]) \
        == space_digest(space)


def test_cluster_run_with_dr(stream, dataset):
    bank = SimulatedCluster(n_workers=2, mode="sync").run(
        cluster_factory(stream), dataset, CONFIG, seed=SEED, use_dr=True
    )

    # The DR tail continues the driver RNG the DN rounds consumed, so the
    # reference drives the same DN phase with an RNG it keeps hold of.
    rng = spawn_rng(SEED, "cluster", dataset.name)
    shared_bank = SimulatedCluster(n_workers=2, mode="sync")._execute(
        cluster_factory(stream), dataset, CONFIG, rng, use_dr=False,
        start_epoch=0, tracker=BestTracker(),
    )
    model = shared_bank.model
    space = DomainParameterSpace(model, dataset.n_domains)
    view, groups = space.training_plan(dataset)
    tracker = PerDomainTracker(N_DOMAINS)
    for _ in range(CONFIG.epochs):
        reference_dr_sweep(model, view, groups, space, CONFIG, rng)
        tracker.update_from_space(model, dataset, space)
    expected = [space.shared] + [
        tracker.best_states()[d] for d in range(N_DOMAINS)
    ]
    assert bank_digest(bank) == digest(expected)
