"""Parameter server semantics: pulls, pushes, sync rounds, optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import ParameterServer


def make_state():
    return {
        "dense.w": np.ones((2, 2)),
        "emb.weight": np.arange(12.0).reshape(4, 3),
    }


def make_ps(**kwargs):
    defaults = dict(embedding_names=["emb.weight"], outer_lr=0.5)
    defaults.update(kwargs)
    return ParameterServer(make_state(), **defaults)


def test_pull_dense_excludes_embeddings():
    ps = make_ps()
    dense = ps.pull_dense()
    assert set(dense) == {"dense.w"}
    dense["dense.w"][0, 0] = 99.0
    assert ps.full_state()["dense.w"][0, 0] == 1.0


def test_pull_embedding_rows():
    ps = make_ps()
    rows = ps.pull_embedding_rows("emb.weight", [1, 3])
    np.testing.assert_allclose(rows, [[3, 4, 5], [9, 10, 11]])
    with pytest.raises(KeyError):
        ps.pull_embedding_rows("dense.w", [0])


def test_unknown_embedding_name_rejected():
    with pytest.raises(KeyError):
        ParameterServer(make_state(), embedding_names=["nope"])


def test_push_delta_interpolation():
    ps = make_ps(outer_lr=0.5)
    ps.push_delta(
        {"dense.w": np.full((2, 2), 2.0)},
        {"emb.weight": {1: np.array([2.0, 2.0, 2.0])}},
    )
    state = ps.full_state()
    np.testing.assert_allclose(state["dense.w"], 2.0)          # 1 + 0.5*2
    np.testing.assert_allclose(state["emb.weight"][1], [4, 5, 6])
    np.testing.assert_allclose(state["emb.weight"][0], [0, 1, 2])  # untouched
    assert ps.version == 1


def test_sync_round_buffers_pushes():
    ps = make_ps(outer_lr=1.0)
    ps.begin_sync_round()
    ps.push_delta({"dense.w": np.ones((2, 2))}, {})
    # not applied yet: pulls still see the snapshot
    np.testing.assert_allclose(ps.pull_dense()["dense.w"], 1.0)
    ps.push_delta({"dense.w": np.ones((2, 2))}, {})
    ps.end_sync_round()
    np.testing.assert_allclose(ps.full_state()["dense.w"], 3.0)
    assert ps.version == 2


def test_sync_round_applies_in_sender_order_not_arrival_order():
    """Float addition is not associative: the barrier result must not
    depend on which worker process happened to push first."""
    from repro.distributed import DirectChannel, PSClient

    deltas = {0: 1.0, 1: 2e-16, 2: -1.0}

    def barrier(arrival):
        ps = make_ps(outer_lr=1.0)
        ps.begin_sync_round()
        for worker_id in arrival:
            PSClient(DirectChannel(ps), worker_id).push_delta(
                {"dense.w": np.full((2, 2), deltas[worker_id])}, {}
            )
        ps.end_sync_round()
        return ps.full_state()["dense.w"]

    assert ((1.0 + 1.0) + 2e-16) - 1.0 != ((1.0 - 1.0) + 2e-16) + 1.0
    np.testing.assert_array_equal(barrier([0, 1, 2]), barrier([2, 1, 0]))


def test_sync_round_guards():
    ps = make_ps()
    with pytest.raises(RuntimeError):
        ps.end_sync_round()
    ps.begin_sync_round()
    with pytest.raises(RuntimeError):
        ps.begin_sync_round()


def test_outer_optimizer_path():
    ps = make_ps(outer_optimizer="sgd", outer_lr=0.1)
    ps.push_delta({"dense.w": np.ones((2, 2))}, {})
    # SGD on gradient -delta with lr 0.1: w += 0.1 * delta
    np.testing.assert_allclose(ps.full_state()["dense.w"], 1.1)


def test_counters_track_traffic():
    ps = make_ps()
    ps.pull_dense()
    ps.pull_embedding_rows("emb.weight", [0, 1, 2])
    ps.push_delta({"dense.w": np.zeros((2, 2))},
                  {"emb.weight": {0: np.zeros(3)}})
    assert ps.pull_counts == {"dense": 1, "embedding_rows": 3}
    assert ps.push_counts == {"dense": 1, "embedding_rows": 1}
