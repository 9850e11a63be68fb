"""Checkpoint/resume: checksummed archives and bit-for-bit restarts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.data.columnar import SerializationError, write_arrays
from repro.distributed import (
    ParameterServer,
    SimulatedCluster,
    load_checkpoint,
    save_checkpoint,
)
from repro.distributed.worker import embedding_parameter_names
from repro.models import build_model
from repro.nn.state import state_checksum


def build_factory(dataset):
    return lambda worker_id: build_model("mlp", dataset, seed=0)


RESUME_CONFIG = TrainConfig(epochs=4, batch_size=32, inner_steps=3,
                            dr_steps=2, sample_k=1, finetune_steps=4)


def test_checkpoint_roundtrip(tiny_dataset, tmp_path):
    model = build_model("mlp", tiny_dataset, seed=0)
    ps = ParameterServer(
        model.state_dict(),
        embedding_names=embedding_parameter_names(model),
        outer_optimizer="adagrad",
    )
    name = next(iter(ps.pull_dense()))
    ps.push_delta({name: np.ones_like(ps.full_state()[name])}, {})
    path = tmp_path / "ckpt.rp"
    save_checkpoint(path, ps, epoch=3)
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == 3
    assert ckpt.version == ps.version == 1
    assert state_checksum(ckpt.state) == state_checksum(ps.full_state())
    # Adagrad accumulators made the trip too.
    slots = ps.optimizer_slots()
    assert set(ckpt.optimizer_slots) == set(slots)
    for attr, entries in slots.items():
        for index, value in entries.items():
            np.testing.assert_array_equal(
                ckpt.optimizer_slots[attr][index], value
            )


def test_corrupt_archive_rejected(tiny_dataset, tmp_path):
    model = build_model("mlp", tiny_dataset, seed=0)
    ps = ParameterServer(model.state_dict())
    path = tmp_path / "ckpt.rp"
    save_checkpoint(path, ps, epoch=1)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match="checksum"):
        load_checkpoint(path)


def test_non_checkpoint_archive_rejected(tiny_dataset, tmp_path):
    path = tmp_path / "other.rp"
    write_arrays(path, {"weights": np.zeros(3)}, kind="snapshot")
    with pytest.raises(SerializationError, match="not a 'checkpoint'"):
        load_checkpoint(path)


def test_unrecognized_key_rejected(tmp_path):
    path = tmp_path / "rogue.rp"
    write_arrays(path, {"rogue/w": np.zeros(3)}, kind="checkpoint",
                 meta={"epoch": 1, "version": 0})
    with pytest.raises(SerializationError, match="unrecognized key"):
        load_checkpoint(path)


def test_restore_validates_key_set(tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    ps = ParameterServer(model.state_dict())
    with pytest.raises(KeyError, match="do not match"):
        ps.restore({"bogus": np.zeros(2)}, version=1)


@pytest.mark.parametrize("outer", [None, "adagrad"])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_resume_is_byte_identical(mode, outer, tiny_dataset, tmp_path):
    """Uninterrupted run == checkpoint at epoch 2 + resume, bit for bit.

    This pins everything a restart needs: PS state + version, server
    optimizer slots, worker inner-Adam moments, model-held RNG streams
    (dropout) and the driver RNG/tracker position.
    """
    factory = build_factory(tiny_dataset)
    full = SimulatedCluster(n_workers=2, mode=mode, outer_optimizer=outer)
    bank_full = full.run(factory, tiny_dataset, RESUME_CONFIG, seed=1)

    path = tmp_path / "ckpt.rp"
    writer = SimulatedCluster(n_workers=2, mode=mode, outer_optimizer=outer,
                              checkpoint_path=str(path), checkpoint_every=2)
    writer.run(factory, tiny_dataset, RESUME_CONFIG, seed=1)
    assert path.exists()

    resumed = SimulatedCluster(n_workers=2, mode=mode, outer_optimizer=outer)
    bank_resumed = resumed.resume(factory, tiny_dataset, RESUME_CONFIG,
                                  checkpoint_path=str(path))
    assert state_checksum(bank_resumed.model.state_dict()) == state_checksum(
        bank_full.model.state_dict()
    )


def test_resume_requires_a_path(tiny_dataset):
    cluster = SimulatedCluster(n_workers=2)
    with pytest.raises(ValueError, match="no checkpoint_path"):
        cluster.resume(build_factory(tiny_dataset), tiny_dataset,
                       RESUME_CONFIG)


def test_checkpoint_not_written_for_final_epoch(tiny_dataset, tmp_path):
    """The guard skips a checkpoint that would only capture the finished
    run — resume from it would train zero epochs."""
    path = tmp_path / "ckpt.rp"
    cluster = SimulatedCluster(n_workers=2, checkpoint_path=str(path),
                               checkpoint_every=2)
    cluster.run(build_factory(tiny_dataset), tiny_dataset,
                RESUME_CONFIG.updated(epochs=2), seed=1)
    assert not path.exists()
