"""Multi-process pool: bit-parity with single-process serving, hot reload.

The acceptance property of the whole subsystem: every response a pool
worker produces — before, during and after a snapshot publish under load —
is bit-identical to what the single-process
:class:`~repro.serving.service.Predictor` returns for the same requests
under the generation the response reports.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import TrainConfig, train_space
from repro.models import build_model
from repro.serving.service import Predictor
from repro.serving.snapshots import SnapshotStore
from repro.traffic import (
    PoolError,
    PredictorPool,
    check_pool_parity,
    fork_available,
)
from repro.traffic.tracegen import TraceConfig, generate_trace

from tests.conftest import SHM_DIR, make_tiny_dataset, shm_segments
from tests.traffic.conftest import make_serving_dataset, train_rng

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
    space_a = train_space(model, dataset, config, train_rng(0, dataset))
    # A genuinely different second space: without it, generation
    # attribution would be unprovable (any generation would "match").
    space_b = train_space(model, dataset, config, train_rng(101, dataset))
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


@pytest.fixture(scope="module")
def fixed_setup():
    """A fixed-feature model (no id tables): workers take the full path."""
    dataset = make_tiny_dataset("fixed")
    model = build_model("mlp", dataset, seed=0)
    config = TrainConfig(
        epochs=1, batch_size=32, inner_steps=1, dr_steps=1, sample_k=1,
    )
    snapshot = SnapshotStore().publish(
        train_space(model, dataset, config, train_rng(0, dataset))
    )
    rng = np.random.default_rng(7)
    users = rng.integers(0, dataset.n_users, size=32).astype(np.int64)
    items = rng.integers(0, dataset.n_items, size=32).astype(np.int64)
    return dataset, model, snapshot, users, items


def test_pool_scores_bit_identical_to_single_process(serving_setup,
                                                     fixed_setup):
    dataset, model, snapshot_a, _, users, items = serving_setup
    # With id tables workers take the row path, without them the full path.
    for dataset, model, snapshot, users, items, row_path in (
        (dataset, model, snapshot_a, users, items, True),
        (*fixed_setup, False),
    ):
        reference = Predictor(model, PinnedStore(snapshot))
        assert bool(reference.field_map) == row_path
        with PredictorPool(model, n_workers=2) as pool:
            pool.publish(snapshot)
            for domain in range(dataset.n_domains):
                pooled = pool.score(users[:32], items[:32], domain)
                reference.invalidate_caches()
                expected = reference.predict_batch(
                    users[:32], items[:32], domain
                )
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


# ----------------------------------------------------------------------
# Recycled arena segments
# ----------------------------------------------------------------------
def submit_batches(pool, sent, users, items, count, worker=None):
    """``count`` distinct batches, remembered by id for the parity check."""
    for _ in range(count):
        batch_id = len(sent)
        domain = batch_id % 3
        lo = (batch_id * 5) % 64
        sent[batch_id] = (domain, users[lo:lo + 16], items[lo:lo + 16])
        pool.submit(batch_id, domain, *sent[batch_id][1:], worker=worker)


def assert_replies_match_pinned(model, results, sent, published):
    """Every reply equals a ``Predictor`` pinned to the generation it
    reports; returns the generations seen."""
    references = {
        generation: Predictor(model, PinnedStore(snapshot))
        for generation, snapshot in published.items()
    }
    for _, _, batch_id, generation, version, scores in results:
        reference = references[generation]
        assert version == published[generation].version
        reference.invalidate_caches()   # the references share one model
        expected = reference.predict_batch(*sent[batch_id][1:],
                                           sent[batch_id][0])
        assert np.array_equal(scores, np.asarray(expected))
    return {message[3] for message in results}


def test_twelve_reloads_under_load_recycle_segments(serving_setup):
    _, model, snapshot_a, snapshot_b, users, items = serving_setup
    preexisting = shm_segments()
    names, sent, published, results = set(), {}, {}, []
    with PredictorPool(model, n_workers=2) as pool:
        for step in range(12):
            if step:
                submit_batches(pool, sent, users, items, 4)  # in flight
            snapshot = (snapshot_a, snapshot_b)[step % 2]
            assert pool.publish(snapshot, wait=False) == []
            published[pool.generation] = snapshot
            names |= shm_segments() - preexisting
            # Two more per worker, queued behind the reload: draining
            # them drains both acks, so the superseded segment retires.
            submit_batches(pool, sent, users, items, 4)
            results.extend(pool.drain())
            assert sorted(pool.stats()["segments"]) == [pool.generation]
        assert len(results) == len(sent)
        seen = assert_replies_match_pinned(model, results, sent, published)
        assert seen == set(range(1, 13))
        assert len(names) <= 3, names
        assert len(shm_segments() - preexisting) == 2   # live + spare


def test_snapshot_larger_than_spare_gets_fresh_segment(serving_setup):
    _, model, snapshot_a, snapshot_b, users, items = serving_setup
    # The same states under more domain keys, copied rather than aliased:
    # genuinely more bytes than any segment the pool has mapped.
    big = SnapshotStore().publish_states(
        {d: {name: value + 0.0
             for name, value in snapshot_b.state_for(d % 3).items()}
         for d in range(9)},
        default_state=snapshot_b.default_state,
    )
    preexisting = shm_segments()
    with PredictorPool(model, n_workers=2) as pool:
        pool.publish(snapshot_a)
        pool.publish(snapshot_b)
        (live,) = pool.stats()["segments"].values()
        spare = shm_segments() - preexisting
        assert len(spare) == 2          # generation 2 and the spare
        pool.publish(big)
        assert pool.stats()["segments"][3] > live
        # Generation 2 is the new spare; the too-small one is gone and
        # generation 3 sits in a segment that did not exist before.
        now = shm_segments() - preexisting
        assert len(now) == 2 and len(now - spare) == 1
        sent = {}
        submit_batches(pool, sent, users, items, 4)
        assert_replies_match_pinned(model, pool.drain(), sent, {3: big})
        # Retired into the spare slot, generation 3 keeps its mapping but
        # must let go of the heap snapshot it was packed from.
        heap_copy = weakref.ref(big)
        del big
        pool.publish(snapshot_a)
        gc.collect()
        assert heap_copy() is None


def test_no_segment_is_rewritten_before_every_worker_acked(serving_setup):
    """Hold one worker on generation 1 (SIGSTOP): its segment must stay
    live, unwritten and out of the spare slot until that worker flipped."""
    import hashlib
    import os
    import signal

    _, model, snapshot_a, snapshot_b, users, items = serving_setup
    preexisting = shm_segments()
    sent, published = {}, {}
    with PredictorPool(model, n_workers=2) as pool:
        pool.publish(snapshot_a)
        published[1] = snapshot_a
        (first,) = shm_segments() - preexisting
        digest = hashlib.sha256((SHM_DIR / first).read_bytes()).digest()
        held = pool.worker_pids()[1]
        os.kill(held, signal.SIGSTOP)
        try:
            submit_batches(pool, sent, users, items, 1, worker=1)
            pool.publish(snapshot_b, wait=False)
            published[2] = snapshot_b
            # Worker 0's reply rides behind its reload: its ack is in.
            submit_batches(pool, sent, users, items, 1, worker=0)
            results = pool.drain(expected=1)
            assert results[0][3] == 2
            assert sorted(pool.stats()["segments"]) == [1, 2]
            pool.publish(snapshot_a, wait=False)
            published[3] = snapshot_a
            assert sorted(pool.stats()["segments"]) == [1, 2, 3]
            assert len(shm_segments() - preexisting) == 3   # none reused
            assert hashlib.sha256(
                (SHM_DIR / first).read_bytes()
            ).digest() == digest
        finally:
            os.kill(held, signal.SIGCONT)
        # The held worker now scores its queued batch on generation 1 —
        # from the segment that was not touched — then flips twice.
        submit_batches(pool, sent, users, items, 4)
        results.extend(pool.drain())
        assert sorted(pool.stats()["segments"]) == [3]
        seen = assert_replies_match_pinned(model, results, sent, published)
        assert seen == {1, 2, 3}
        # Generation 1's segment became the spare, generation 2's was
        # retired second and unlinked.
        assert shm_segments() - preexisting >= {first}
        assert len(shm_segments() - preexisting) == 2


def test_dead_worker_is_named_promptly(serving_setup):
    """A worker killed with a batch in flight fails the drain fast, by
    name, and later sends to its pipe fail the same way."""
    import os
    import signal
    import time

    _, model, snapshot_a, _, users, items = serving_setup
    with PredictorPool(model, n_workers=2) as pool:
        pool.publish(snapshot_a)
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        pool.submit(0, 0, users[:8], items[:8], worker=0)
        os.kill(victim, signal.SIGKILL)
        start = time.monotonic()
        with pytest.raises(PoolError, match="worker 0"):
            pool.drain(expected=1)
        assert time.monotonic() - start < 5.0
        with pytest.raises(PoolError, match="worker 0"):
            pool.submit(1, 0, users[:8], items[:8], worker=0)
