"""Snapshot store: COW materialization, atomic hot-swap, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainParameterSpace
from repro.models import build_model
from repro.nn import SerializationError
from repro.nn.state import state_allclose, zeros_like_state
from repro.serving import SnapshotStore

from tests.conftest import make_tiny_dataset

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable")


@pytest.fixture()
def space(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, dataset.n_domains)
    # Give domain 1 a real delta on one dense parameter; everything else
    # stays at zero so COW has structure to exploit.
    delta = zeros_like_state(space.shared)
    name = next(n for n in delta if "body" in n)
    delta[name] = delta[name] + 0.25
    space.set_delta(1, delta)
    return space


def test_publish_materializes_combined_states(space):
    store = SnapshotStore()
    snapshot = store.publish(space)
    assert snapshot.version == 1
    for domain in range(space.n_domains):
        assert state_allclose(
            dict(snapshot.state_for(domain)), dict(space.combined(domain))
        )


def test_cow_zero_delta_entries_alias_shared(space):
    snapshot = SnapshotStore().publish(space)
    shared = snapshot.default_state
    # Domain 0 has an all-zero delta: every entry aliases θ_S.
    for name, value in snapshot.state_for(0).items():
        assert value is shared[name]
    # Domain 1 diverges on exactly one parameter.
    diverged = [
        name for name, value in snapshot.state_for(1).items()
        if value is not shared[name]
    ]
    assert len(diverged) == 1
    stats = snapshot.cow_stats()
    assert stats["copied_arrays"] == 1
    assert stats["bytes_saved"] > 0


def test_snapshot_arrays_are_frozen_and_space_is_untouched(space):
    before = {name: value.copy() for name, value in space.shared.items()}
    snapshot = SnapshotStore().publish(space)
    for state in [snapshot.default_state] + [
        snapshot.state_for(d) for d in range(space.n_domains)
    ]:
        for value in state.values():
            assert not value.flags.writeable
    # The space's own arrays stay writable (training continues after
    # publish) and unchanged.
    for name, value in space.shared.items():
        assert value.flags.writeable
        np.testing.assert_array_equal(value, before[name])


def test_hot_swap_is_atomic_for_pinned_readers(space):
    """A reader that pinned current() keeps a complete, immutable version."""
    store = SnapshotStore()
    store.publish(space)
    pinned = store.current()
    pinned_states = {
        d: {n: v.copy() for n, v in pinned.state_for(d).items()}
        for d in range(space.n_domains)
    }
    # Mutate the space (training advanced) and publish mid-"batch".
    space.set_shared({n: v + 1.0 for n, v in space.shared.items()})
    store.publish(space)
    assert store.current().version == 2
    assert pinned.version == 1
    for d in range(space.n_domains):
        for name, value in pinned.state_for(d).items():
            np.testing.assert_array_equal(value, pinned_states[d][name])


def test_rollback_and_retention(space):
    store = SnapshotStore(keep=2)
    store.publish(space)
    store.publish(space)
    store.publish(space)
    assert store.versions() == [2, 3]
    with pytest.raises(KeyError):
        store.get(1)
    store.rollback(2)
    assert store.version == 2


def test_current_before_publish_raises():
    with pytest.raises(LookupError):
        SnapshotStore().current()


def test_save_load_round_trip(tmp_path, space):
    store = SnapshotStore()
    store.publish(space)
    path = tmp_path / "snapshot.npz"
    store.save(path)
    fresh = SnapshotStore()
    loaded = fresh.load(path)
    for domain in range(space.n_domains):
        assert state_allclose(
            dict(loaded.state_for(domain)), dict(space.combined(domain))
        )
    # value-equality COW on load: zero-delta domains alias the default.
    shared = loaded.default_state
    assert all(v is shared[n] for n, v in loaded.state_for(0).items())


def test_load_rejects_corrupt_archive(tmp_path, space):
    store = SnapshotStore()
    store.publish(space)
    path = tmp_path / "snapshot.npz"
    store.save(path)
    # Forge a tampered archive: same keys, one array changed, stale header.
    with np.load(path) as archive:
        payload = {k: archive[k].copy() for k in archive.files}
    victim = next(k for k in payload if k != "__repro_meta__")
    payload[victim] = payload[victim] + 1e-3
    np.savez(path, **payload)
    with pytest.raises(SerializationError, match="checksum"):
        SnapshotStore().load(path)


def test_load_requires_integrity_header(tmp_path, space):
    store = SnapshotStore()
    store.publish(space)
    path = tmp_path / "snapshot.npz"
    store.save(path)
    with np.load(path) as archive:
        payload = {
            k: archive[k].copy() for k in archive.files
            if k != "__repro_meta__"
        }
    np.savez(path, **payload)
    with pytest.raises(SerializationError, match="header"):
        SnapshotStore().load(path)


# ----------------------------------------------------------------------
# Retention vs. rollback (the online-publisher contract)
# ----------------------------------------------------------------------
def test_retention_never_evicts_served_version(space):
    """The currently-served version survives any amount of retention
    pressure — even when it is the oldest retained version (post
    rollback) and the budget is a single slot."""
    store = SnapshotStore(keep=1)
    store.publish(space)                 # v1
    store.publish(space)                 # v2
    store.publish(space)                 # v3
    store.rollback(2)                    # serve the old anchor
    assert store.version == 2
    assert 2 in store.versions()
    snapshot = store.current()
    # readers pinned on v2 keep a live, retained version throughout
    assert store.get(2) is snapshot


def test_publish_during_rollback_keeps_baseline_retained(space):
    """Regression: canary publish on top of a rolled-back store with
    keep=1 must leave the rollback target available for the next
    rollback.  Before the rollback-anchor fix, _prune evicted it."""
    store = SnapshotStore(keep=1)
    store.publish(space)                 # v1 (served)
    store.publish(space)                 # v2: canary candidate
    # Gate fails: publisher rolls back to v1.
    store.rollback(1)
    assert store.version == 1
    # Next window's canary publishes while v1 is being served.
    store.publish(space)                 # v3
    assert store.version == 3
    # v1 must still be retained — a second gate failure rolls back again.
    store.rollback(1)
    assert store.version == 1
    assert 1 in store.versions()


def test_prune_does_not_pin_unrelated_versions_behind_anchor(space):
    """Protected versions are skipped, not loop-breaks: old unprotected
    versions still get pruned even when an anchor sits before them."""
    store = SnapshotStore(keep=2)
    store.publish(space)                 # v1
    store.publish(space)                 # v2
    store.rollback(1)                    # current=v1, previous=v2
    store.publish(space)                 # v3: previous=v1
    store.publish(space)                 # v4: previous=v3
    # Budget 2: v1 (old) is now unprotected and must go; v3 (anchor) and
    # v4 (current) stay.
    assert store.versions() == [3, 4]


# ----------------------------------------------------------------------
# Shared-memory arena (cross-process COW)
# ----------------------------------------------------------------------
def test_shared_arena_round_trip_preserves_bits_and_aliasing(space):
    from repro.serving import SharedSnapshotArena

    store = SnapshotStore()
    snapshot = store.publish(space)
    arena = SharedSnapshotArena.materialize(snapshot, generation=3)
    attached = SharedSnapshotArena.attach(arena.manifest)
    try:
        mirror = attached.snapshot
        assert attached.generation == 3
        assert mirror.version == snapshot.version
        for domain in snapshot.domains:
            for name, value in snapshot.state_for(domain).items():
                twin = mirror.state_for(domain)[name]
                assert np.array_equal(twin, value)
                assert not twin.flags.writeable
        # COW survives the process boundary: the same aliased/copied split.
        assert mirror.cow_stats() == snapshot.cow_stats()
        # Aliased entries are literally one view, not n_domains views.
        zero_delta = next(
            name for name in snapshot.default_state
            if snapshot.states[0][name] is snapshot.default_state[name]
        )
        assert mirror.states[0][zero_delta] is mirror.default_state[zero_delta]
    finally:
        del mirror, twin
        assert attached.close()
        arena.unlink()


def test_shared_arena_packs_unique_arrays_once(space):
    from repro.serving import SharedSnapshotArena

    snapshot = SnapshotStore().publish(space)
    arena = SharedSnapshotArena.materialize(snapshot, generation=1)
    try:
        unique = {id(v) for state in snapshot.states.values()
                  for v in state.values()}
        unique |= {id(v) for v in snapshot.default_state.values()}
        assert len(arena.manifest["arrays"]) == len(unique)
        total = sum(
            v for state in [snapshot.default_state, *snapshot.states.values()]
            for v in [sum(a.nbytes for a in state.values())]
        )
        # Aliasing means the segment is far smaller than the naive sum.
        assert arena.nbytes < total
    finally:
        arena.unlink()


def test_shared_arena_only_owner_unlinks(space):
    from repro.serving import SharedSnapshotArena

    snapshot = SnapshotStore().publish(space)
    arena = SharedSnapshotArena.materialize(snapshot, generation=1)
    attached = SharedSnapshotArena.attach(arena.manifest)
    with pytest.raises(RuntimeError):
        attached.unlink()
    assert attached.close()
    arena.unlink()


def test_shared_arena_close_reports_pinned_views(space):
    from repro.serving import SharedSnapshotArena

    snapshot = SnapshotStore().publish(space)
    arena = SharedSnapshotArena.materialize(snapshot, generation=1)
    attached = SharedSnapshotArena.attach(arena.manifest)
    pinned = attached.snapshot.state_for(0)
    name, view = next(iter(pinned.items()))
    assert not attached.close()          # a live view pins the buffer
    del pinned, view
    assert attached.close()              # released once views die
    arena.unlink()
