"""Compiled replay is the default engine, and it changes no bit.

Every training entry point now steps through the model's
:class:`~repro.nn.StepExecutor`; :func:`repro.nn.eager_execution` is the
switch back to the eager oracle.  These tests pin two things the
default rests on:

* **parity** — every Algorithm 3 call site, a ``Session.fit`` and an
  ``IncrementalTrainer`` fed from a columnar archive produce the same
  bytes under the default engine and under ``eager_execution()``;
* **coverage** — columnar windows (uint32 ids, float32 labels) replay
  instead of falling back to eager steps.

Lifetimes under the default (refcount-only, no collector) are pinned by
``tests/nn/test_compile.py::TestCacheLifetime``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MAMDR,
    DomainNegotiation,
    DomainRegularization,
    TrainConfig,
    train_space,
)
from repro.distributed import SimulatedCluster
from repro.nn import eager_execution, executor_for
from repro.online import EventStream, IncrementalTrainer
from repro.online.stream import StreamArchive, write_stream
from repro.train import Session, SessionConfig
from repro.utils.seeding import spawn_rng

import tests.core.test_algorithm3_single_source as alg3
from tests.conftest import make_tiny_dataset
from tests.online.conftest import make_stream_model, small_stream_config


@pytest.fixture(scope="module")
def stream():
    return EventStream(small_stream_config(n_windows=3))


@pytest.fixture(scope="module")
def dataset(stream):
    return alg3.make_trainer(stream).window_dataset()


def update_digest(update):
    return alg3.digest([update.default_state]
                       + [update.states[d] for d in sorted(update.states)])


CALL_SITES = {
    "train_space": lambda stream, dataset: alg3.space_digest(train_space(
        alg3.make_model(stream), dataset, alg3.CONFIG,
        spawn_rng(alg3.SEED, "scenario"))),
    "mamdr_fit": lambda stream, dataset: alg3.bank_digest(MAMDR().fit(
        alg3.make_model(stream), dataset, alg3.CONFIG, seed=alg3.SEED)),
    "dn_fit": lambda stream, dataset: alg3.digest([DomainNegotiation().fit(
        alg3.make_model(stream), dataset, alg3.CONFIG, seed=alg3.SEED,
    ).model.state_dict()]),
    "dr_fit": lambda stream, dataset: alg3.bank_digest(
        DomainRegularization().fit(alg3.make_model(stream), dataset,
                                   alg3.CONFIG, seed=alg3.SEED)),
    "incremental_local": lambda stream, dataset: update_digest(
        alg3.make_trainer(stream).update(key=5)),
    "incremental_cluster": lambda stream, dataset: update_digest(
        alg3.make_trainer(
            stream, backend="cluster", n_workers=2,
            replica_factory=lambda: alg3.make_model(stream),
        ).update(key=5)),
    "cluster_with_dr": lambda stream, dataset: alg3.bank_digest(
        SimulatedCluster(n_workers=2, mode="sync").run(
            alg3.cluster_factory(stream), dataset, alg3.CONFIG,
            seed=alg3.SEED, use_dr=True)),
}


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_algorithm3_call_site_is_engine_independent(stream, dataset, site):
    run = CALL_SITES[site]
    replayed = run(stream, dataset)
    with eager_execution():
        eager = run(stream, dataset)
    assert replayed == eager


@pytest.mark.parametrize("feature_mode", ["trainable", "fixed"])
def test_session_fit_auc_is_engine_independent(feature_mode):
    dataset = make_tiny_dataset(feature_mode)
    config = SessionConfig(
        dataset=dataset.name, model="mlp", framework="mamdr", seed=0,
        train=TrainConfig(epochs=1, batch_size=32, inner_steps=2,
                          dr_steps=2, sample_k=1),
    )
    result = Session(config, dataset=dataset).fit()
    assert executor_for(result.bank.model).replays > 0
    with eager_execution():
        eager = Session(config, dataset=dataset).fit()
    assert result.mean_auc.hex() == eager.mean_auc.hex()


def test_incremental_trainer_replays_columnar_windows(tmp_path):
    """Archive windows carry uint32 ids and float32 labels; the executor
    widens them exactly, so every step after bootstrap replays a tape and
    the update is the eager update to the last bit."""
    path = tmp_path / "stream.col"
    live = EventStream(small_stream_config())
    write_stream(path, live)
    config = TrainConfig(epochs=1, batch_size=64, inner_steps=2, dn_rounds=1,
                         sample_k=1, dr_steps=1)

    def run():
        archive = StreamArchive.open(path)
        window = archive.window(0)
        assert window.users.dtype == np.uint32
        assert window.labels.dtype == np.float32
        del window
        trainer = IncrementalTrainer(
            make_stream_model(live.skeleton_dataset()), live.config.n_domains,
            config, n_users=live.config.n_users, n_items=live.config.n_items,
        )
        trainer.ingest_archive(archive, indices=[0, 1])
        trainer.update(key="bootstrap")
        executor = executor_for(trainer.model)
        eager_steps, replays = executor.eager_steps, executor.replays
        trainer.ingest(archive.window(2))
        update = trainer.update(key=2)
        archive.close()
        return (update, executor.eager_steps - eager_steps,
                executor.replays - replays)

    update, eager_steps, replays = run()
    assert eager_steps == 0
    assert replays > 0
    with eager_execution():
        reference, _, _ = run()
    assert update_digest(update) == update_digest(reference)
