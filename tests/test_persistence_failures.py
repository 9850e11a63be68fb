"""Injected failures at the two persisted boundaries: snapshots and
cluster checkpoints.

Each cell runs for both.  A writer killed before its rename, a truncated
file and a flipped payload bit must each end with the previous version
still loadable — or the load refused — never with garbage served or
resumed from.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core import DomainParameterSpace, TrainConfig
from repro.data.columnar import SerializationError, read_arrays
from repro.distributed import (
    ParameterServer,
    SimulatedCluster,
    load_checkpoint,
    save_checkpoint,
)
from repro.models import build_model
from repro.nn.state import state_checksum
from repro.serving import SharedSnapshotArena, SnapshotStore

KINDS = ["snapshot", "checkpoint"]
PREAMBLE = 64


def _header_bytes(path):
    """Length of the JSON header named by an ``RPROCOL1`` preamble."""
    data = path.read_bytes()
    assert data[:8] == b"RPROCOL1"
    return int.from_bytes(data[16:24], "little")


def _aligned(nbytes):
    return -(-nbytes // 64) * 64


class SnapshotCase:
    """Publish generation ``g`` (θ_S shifted by ``g``) and save it."""

    def __init__(self, dataset, tmp_path):
        model = build_model("mlp", dataset, seed=0)
        self.space = DomainParameterSpace(model, dataset.n_domains)
        self.base = {n: v.copy() for n, v in self.space.shared.items()}
        delta = {n: np.zeros_like(v) for n, v in self.base.items()}
        name = next(n for n in delta if "body" in n)
        delta[name] += 0.25
        self.space.apply_delta(1, delta)
        self.store = SnapshotStore()
        self.path = tmp_path / "snapshot.rp"
        self.generations = {}

    def save(self, generation):
        self.space.set_shared({n: v + generation for n, v in self.base.items()})
        snapshot = self.store.publish(self.space)
        self.generations[state_checksum(snapshot.default_state)] = generation
        self.store.save(self.path)

    def load(self):
        snapshot = SnapshotStore().load(self.path)
        return self.generations[state_checksum(snapshot.default_state)]

    def assert_fails_closed(self, match):
        live = self.store.current()
        with pytest.raises(SerializationError, match=match):
            self.store.load(self.path)
        assert self.store.current() is live

    def assert_compact_round_trip(self):
        snapshot = self.store.current()
        arena = SharedSnapshotArena.materialize(snapshot, generation=1)
        try:
            bound = arena.nbytes + PREAMBLE + _header_bytes(self.path)
            assert self.path.stat().st_size <= bound
        finally:
            arena.unlink()
        loaded = SnapshotStore().load(self.path)
        assert loaded.cow_stats() == snapshot.cow_stats()


class CheckpointCase:
    """Advance the PS one push and checkpoint it as epoch ``g``."""

    def __init__(self, dataset, tmp_path):
        self.dataset = dataset
        model = build_model("mlp", dataset, seed=0)
        self.ps = ParameterServer(model.state_dict(),
                                  outer_optimizer="adagrad")
        self.path = tmp_path / "ckpt.rp"

    def save(self, generation):
        name = next(iter(self.ps.pull_dense()))
        self.ps.push_delta(
            {name: np.ones_like(self.ps.full_state()[name])}, {}
        )
        save_checkpoint(self.path, self.ps, epoch=generation)

    def load(self):
        return load_checkpoint(self.path).epoch

    def assert_fails_closed(self, match):
        cluster = SimulatedCluster(n_workers=2)
        with pytest.raises(SerializationError, match=match):
            cluster.resume(
                lambda worker_id: build_model("mlp", self.dataset, seed=0),
                self.dataset, TrainConfig(epochs=2, batch_size=32),
                checkpoint_path=str(self.path),
            )

    def assert_compact_round_trip(self):
        arrays = list(self.ps.full_state().values()) + [
            value for entries in self.ps.optimizer_slots().values()
            for value in entries.values()
        ]
        bound = (PREAMBLE + _header_bytes(self.path)
                 + sum(_aligned(np.asarray(a).nbytes) for a in arrays))
        assert self.path.stat().st_size <= bound
        assert len(read_arrays(self.path, "checkpoint")[0]) == len(arrays)
        ckpt = load_checkpoint(self.path)
        assert state_checksum(ckpt.state) == state_checksum(
            self.ps.full_state()
        )


CASES = {"snapshot": SnapshotCase, "checkpoint": CheckpointCase}


@pytest.mark.parametrize("kind", KINDS)
def test_writer_killed_before_rename_leaves_previous_file(kind, tiny_dataset,
                                                          tmp_path):
    case = CASES[kind](tiny_dataset, tmp_path)
    case.save(1)
    pid = os.fork()
    if pid == 0:  # the child dies at the rename while saving generation 2
        try:
            os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
            case.save(2)
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert case.load() == 1
    # The next write truncates the dead writer's .tmp and publishes.
    case.save(2)
    assert case.load() == 2
    assert [p.name for p in tmp_path.iterdir()] == [case.path.name]


@pytest.mark.parametrize("damage", ["truncated", "bitflip"])
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_file_fails_closed(kind, damage, tiny_dataset, tmp_path):
    case = CASES[kind](tiny_dataset, tmp_path)
    case.save(1)
    data = bytearray(case.path.read_bytes())
    if damage == "truncated":
        del data[len(data) // 2:]
    else:
        data[PREAMBLE + 8] ^= 0x01   # one bit inside the first section
    case.path.write_bytes(bytes(data))
    case.assert_fails_closed(
        "truncated" if damage == "truncated" else "checksum"
    )


@pytest.mark.parametrize("kind", KINDS)
def test_file_holds_each_array_once(kind, tiny_dataset, tmp_path):
    case = CASES[kind](tiny_dataset, tmp_path)
    case.save(1)
    case.assert_compact_round_trip()
