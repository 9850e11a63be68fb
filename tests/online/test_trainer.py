"""Incremental trainer: replay, temporal holdouts, warm-start parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    domain_negotiation_epoch,
    domain_regularization_round,
    make_inner_optimizer,
)
from repro.data.schema import InteractionTable
from repro.online import IncrementalTrainer, ReplayBuffer, space_from_snapshot
from repro.serving import SnapshotStore
from repro.utils.seeding import spawn_rng

from tests.online.conftest import make_stream_model

pytestmark = pytest.mark.online


def _table(start, n, label=1.0):
    ids = np.arange(start, start + n)
    return InteractionTable(ids, ids, np.full(n, label))


def make_trainer(stream, skeleton, config, **overrides):
    model = make_stream_model(skeleton)
    kwargs = dict(
        backend="local", replay_capacity=400, holdout_frac=0.25,
        holdout_capacity=120, dataset_name=stream.config.name,
        n_users=stream.config.n_users, n_items=stream.config.n_items,
        seed=stream.config.seed,
    )
    kwargs.update(overrides)
    return IncrementalTrainer(
        model, stream.config.n_domains, config, **kwargs
    )


# ----------------------------------------------------------------------
# Replay buffer
# ----------------------------------------------------------------------
def test_replay_buffer_slides_keeping_newest():
    buffer = ReplayBuffer(capacity=5)
    buffer.extend(0, _table(0, 4))
    buffer.extend(0, _table(4, 4))
    kept = buffer.table(0)
    assert len(kept) == 5
    np.testing.assert_array_equal(kept.users, np.arange(3, 8))
    assert buffer.size(0) == 5
    assert buffer.size(1) == 0
    with pytest.raises(KeyError):
        buffer.table(1)


def test_replay_buffer_tracks_domains_independently():
    buffer = ReplayBuffer(capacity=10)
    buffer.extend(0, _table(0, 3))
    buffer.extend(2, _table(100, 4))
    assert buffer.domains() == [0, 2]
    assert buffer.size(0) == 3
    assert buffer.size(2) == 4


def test_replay_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0)


# ----------------------------------------------------------------------
# Ingestion: temporal split, holdout isolation
# ----------------------------------------------------------------------
def test_ingest_keeps_holdout_disjoint_from_replay(stream, skeleton,
                                                   online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    window = stream.window(0)
    trainer.ingest(window)
    for domain, (table, times) in window.per_domain().items():
        replayed = trainer.replay.table(domain)
        held = trainer.holdout_buffer.table(domain)
        # The window partitions exactly: earliest rows train, the most
        # recent slice is held out, nothing overlaps and nothing is lost.
        assert len(replayed) + len(held) == len(table)
        np.testing.assert_array_equal(replayed.users,
                                      table.users[:len(replayed)])
        np.testing.assert_array_equal(held.users,
                                      table.users[len(replayed):])
        # The split point matches the recorded watermark: every replayed
        # event is at or before it, every held-out event after.
        cutoff = trainer.holdout_watermarks.get(domain)
        if cutoff is not None:
            assert times[len(replayed) - 1] <= cutoff < times[len(replayed)]
    assert trainer.ingested_events == len(window)
    assert trainer.last_watermark == window.watermark


def test_holdouts_accumulate_across_windows(stream, skeleton, online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    trainer.ingest(stream.window(0))
    sizes_before = {d: len(t) for d, t in trainer.holdouts.items()}
    trainer.ingest(stream.window(1))
    assert any(
        len(trainer.holdouts[d]) > sizes_before.get(d, 0)
        for d in trainer.holdouts
    )


def test_window_dataset_requires_bootstrap(stream, skeleton, online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    with pytest.raises(ValueError, match="bootstrap"):
        trainer.window_dataset()


def test_window_dataset_uses_holdout_as_val(stream, skeleton, online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    dataset = trainer.window_dataset()
    assert dataset.n_domains == stream.config.n_domains
    for domain in dataset.domains:
        assert domain.val is trainer.holdouts[domain.index]
        assert domain.test is domain.val
        assert len(domain.train) == trainer.replay.size(domain.index)


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
def test_update_states_match_live_space(stream, skeleton, online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    update = trainer.update(key=1)
    assert update.key == 1
    assert update.domains == list(range(stream.config.n_domains))
    for domain in update.domains:
        expected = trainer.space.combined(domain)
        for name, value in update.states[domain].items():
            np.testing.assert_array_equal(value, expected[name])
    for name, value in update.default_state.items():
        np.testing.assert_array_equal(value, trainer.space.shared[name])


def test_update_is_deterministic_given_key(stream, skeleton, online_config):
    results = []
    for _ in range(2):
        trainer = make_trainer(stream, skeleton, online_config)
        trainer.ingest(stream.window(0))
        trainer.ingest(stream.window(1))
        results.append(trainer.update(key=7))
    for domain in results[0].domains:
        for name in results[0].states[domain]:
            np.testing.assert_array_equal(
                results[0].states[domain][name],
                results[1].states[domain][name],
            )


def test_space_from_snapshot_round_trips(stream, skeleton, online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    update = trainer.update(key=0)
    store = SnapshotStore()
    snapshot = store.publish_states(
        update.states, default_state=update.default_state
    )
    fresh = make_stream_model(skeleton)
    space = space_from_snapshot(fresh, snapshot)
    for domain in update.domains:
        combined = space.combined(domain)
        for name, value in snapshot.state_for(domain).items():
            np.testing.assert_array_equal(combined[name], value)


def test_space_from_snapshot_needs_default_state(stream, skeleton,
                                                 online_config):
    trainer = make_trainer(stream, skeleton, online_config)
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    update = trainer.update(key=0)
    snapshot = SnapshotStore().publish_states(update.states)
    with pytest.raises(ValueError, match="shared"):
        space_from_snapshot(make_stream_model(skeleton), snapshot)


def test_warm_start_parity_with_offline_step(stream, skeleton, online_config):
    """An incremental update from a snapshot is byte-identical to the same
    DN+DR step replicated offline on the same data — update() is a pure
    function of (space, window dataset, key)."""
    # Pipeline A: train a little and publish a snapshot.
    pioneer = make_trainer(stream, skeleton, online_config)
    pioneer.ingest(stream.window(0))
    pioneer.ingest(stream.window(1))
    update = pioneer.update(key=1)
    snapshot = SnapshotStore().publish_states(
        update.states, default_state=update.default_state
    )

    # Pipeline B: a fresh trainer warm-starts from the snapshot and takes
    # the next incremental step.
    warm = make_trainer(stream, skeleton, online_config)
    warm.ingest(stream.window(0))
    warm.ingest(stream.window(1))
    warm.ingest(stream.window(2))
    warm.warm_start(snapshot)
    online_step = warm.update(key=2)

    # Pipeline C: the same step replicated by hand offline — rebuild the
    # space from the snapshot, run DN then DR with the same namespaced RNG.
    model = make_stream_model(skeleton)
    loader = make_trainer(stream, skeleton, online_config)
    loader.ingest(stream.window(0))
    loader.ingest(stream.window(1))
    loader.ingest(stream.window(2))
    dataset = loader.window_dataset()
    space = space_from_snapshot(model, snapshot)
    model.load_state_dict(space.shared)
    rng = spawn_rng(stream.config.seed, "online", "update", 2)
    optimizer = make_inner_optimizer(model, online_config)
    shared = space.shared
    for _ in range(online_config.dn_rounds):
        shared = domain_negotiation_epoch(
            model, dataset, shared, online_config, rng, optimizer=optimizer,
        )
    space.set_shared(shared)
    for domain in range(stream.config.n_domains):
        space.apply_delta(domain, domain_regularization_round(
            model, dataset, space, domain, online_config, rng,
        ))

    for domain in online_step.domains:
        offline = space.combined(domain)
        for name, value in online_step.states[domain].items():
            np.testing.assert_array_equal(value, offline[name])


def test_cluster_backend_runs_an_update(stream, skeleton, online_config):
    trainer = make_trainer(
        stream, skeleton, online_config,
        backend="cluster",
        replica_factory=lambda: make_stream_model(skeleton),
        n_workers=2,
    )
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    update = trainer.update(key=0)
    assert update.domains == list(range(stream.config.n_domains))


def test_trainer_rejects_bad_arguments(stream, skeleton, online_config):
    with pytest.raises(ValueError, match="backend"):
        make_trainer(stream, skeleton, online_config, backend="gpu")
    with pytest.raises(ValueError, match="replica_factory"):
        make_trainer(stream, skeleton, online_config, backend="cluster")
    with pytest.raises(ValueError, match="holdout_frac"):
        make_trainer(stream, skeleton, online_config, holdout_frac=1.5)
