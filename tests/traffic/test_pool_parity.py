"""Multi-process pool: bit-parity with single-process serving, hot reload.

The acceptance property of the whole subsystem: every response a pool
worker produces — before, during and after a snapshot publish under load —
is bit-identical to what the single-process
:class:`~repro.serving.service.Predictor` returns for the same requests
under the generation the response reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig, train_space
from repro.models import build_model
from repro.serving.bench import bench_train_rng, make_serving_dataset
from repro.serving.service import Predictor
from repro.serving.snapshots import SnapshotStore
from repro.traffic import PoolError, PredictorPool, fork_available
from repro.traffic.loadbench import check_pool_parity
from repro.traffic.tracegen import TraceConfig, generate_trace

pytestmark = [
    pytest.mark.traffic,
    pytest.mark.skipif(
        not fork_available(), reason="pool requires the fork start method"
    ),
]


class PinnedStore:
    """A store view frozen at one snapshot (reference predictors)."""

    def __init__(self, snapshot):
        self._snapshot = snapshot

    def current(self):
        return self._snapshot


@pytest.fixture(scope="module")
def serving_setup():
    dataset = make_serving_dataset(n_domains=3, seed=1)
    model = build_model("mlp", dataset, seed=0)
    config = TrainConfig(
        epochs=1, batch_size=32, inner_steps=1, dr_steps=1, sample_k=1,
    )
    space_a = train_space(model, dataset, config, bench_train_rng(0, dataset))
    # A genuinely different second space: without it, generation
    # attribution would be unprovable (any generation would "match").
    space_b = train_space(model, dataset, config,
                          bench_train_rng(101, dataset))
    store = SnapshotStore(keep=4)
    snapshot_a = store.publish(space_a)
    snapshot_b = store.publish(space_b)
    rng = np.random.default_rng(7)
    users = rng.integers(0, dataset.n_users, size=96).astype(np.int64)
    items = rng.integers(0, dataset.n_items, size=96).astype(np.int64)
    return dataset, model, snapshot_a, snapshot_b, users, items


def test_snapshots_genuinely_differ(serving_setup):
    _, model, snapshot_a, snapshot_b, users, items = serving_setup
    ref_a = Predictor(build_model("mlp", make_serving_dataset(3, seed=1),
                                  seed=0), PinnedStore(snapshot_a))
    scores_a = np.asarray(ref_a.predict_batch(users[:16], items[:16], 0))
    ref_b = Predictor(build_model("mlp", make_serving_dataset(3, seed=1),
                                  seed=0), PinnedStore(snapshot_b))
    scores_b = np.asarray(ref_b.predict_batch(users[:16], items[:16], 0))
    assert not np.array_equal(scores_a, scores_b)


def test_pool_scores_bit_identical_to_single_process(serving_setup):
    dataset, model, snapshot_a, _, users, items = serving_setup
    reference = Predictor(model, PinnedStore(snapshot_a))
    with PredictorPool(model, n_workers=2) as pool:
        pool.publish(snapshot_a)
        for domain in range(dataset.n_domains):
            pooled = pool.score(users[:32], items[:32], domain)
            reference.invalidate_caches()
            expected = reference.predict_batch(users[:32], items[:32], domain)
            assert np.array_equal(pooled, np.asarray(expected))


def test_hot_reload_under_load_is_generation_exact(serving_setup):
    """Publish mid-trace; every response matches its generation's reference.

    Batches are in flight when the reload lands (``wait=False`` rides the
    task queues), so the run genuinely exercises in-band flipping — and
    the check requires both generations to have produced responses.
    """
    dataset, model, snapshot_a, snapshot_b, _, _ = serving_setup
    trace = generate_trace(TraceConfig(
        name="parity", n_domains=dataset.n_domains,
        n_users=dataset.n_users, n_items=dataset.n_items,
        duration=0.2, mean_qps=2000.0, slot_seconds=0.01, seed=11,
    ))
    with PredictorPool(model, n_workers=2) as pool:
        report = check_pool_parity(
            pool, model, [snapshot_a, snapshot_b], trace, max_batch=16,
        )
    assert report["ok"], report
    assert report["mismatches"] == 0
    assert report["generations"] == [1, 2]
    assert report["batches"] > 2


def test_reload_wait_retires_superseded_segment(serving_setup):
    _, model, snapshot_a, snapshot_b, users, items = serving_setup
    with PredictorPool(model, n_workers=2) as pool:
        pool.publish(snapshot_a)
        assert sorted(pool.stats()["segments"]) == [1]
        pool.publish(snapshot_b)   # wait=True: all workers acked
        assert sorted(pool.stats()["segments"]) == [2]
        assert pool.generation == 2
        # And scoring proceeds on the new generation.
        pool.submit(0, 0, users[:8], items[:8])
        (message,) = pool.drain(expected=1)
        assert message[3] == 2


def test_pool_requires_a_published_snapshot(serving_setup):
    _, model, *_ = serving_setup
    with PredictorPool(model, n_workers=1) as pool:
        with pytest.raises(PoolError):
            pool.submit(0, 0, np.zeros(2, dtype=np.int64),
                        np.zeros(2, dtype=np.int64))


def test_worker_processes_are_real(serving_setup):
    import os

    _, model, snapshot_a, *_ = serving_setup
    with PredictorPool(model, n_workers=2) as pool:
        pool.publish(snapshot_a)
        pids = pool.worker_pids()
        assert len(set(pids)) == 2
        assert os.getpid() not in pids
