"""Periodic PS checkpointing and exact resume (fault tolerance, IV-E).

A checkpoint captures everything the driver needs to restart a training
run bit-for-bit after a crash: the authoritative PS state and version,
the server-side optimizer's accumulated slots, the driver RNG's exact
bit-generator state, the best-snapshot tracker and the epoch counter.
It is persisted through :mod:`repro.nn.serialization`, so every archive
carries the checksummed integrity header — a truncated or bit-flipped
checkpoint fails loudly at load instead of resuming from garbage.

Layout (one ``.npz`` archive):

* ``state/<param>`` — PS authoritative arrays;
* ``best/<param>`` + ``ckpt/best_score`` — the tracker's best snapshot;
* ``opt/<slot>/<param_index>`` — server optimizer slot arrays;
* ``wkr/<worker_id>/<slot>/<param_index>`` — worker inner-optimizer slots
  (the inner Adam's moments carry across epochs, so exact resume must
  restore them);
* ``ckpt/{epoch, version, rng, meta}`` — scalars and JSON blobs; the
  meta blob also carries every model-held RNG stream (e.g. dropout
  masks), per worker and for the driver replica, because those streams
  advance with training and a fresh replica would re-deal them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..nn.serialization import SerializationError, load_state, save_state
from ..utils.seeding import spawn_rng

__all__ = [
    "ClusterCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "module_rng_states",
    "restore_module_rngs",
]

_STATE = "state/"
_BEST = "best/"
_OPT = "opt/"
_WKR = "wkr/"


def _pack_slots(payload, prefix, slots):
    for slot, entries in slots.items():
        if isinstance(entries, dict):
            for index, value in entries.items():
                payload[f"{prefix}{slot}/{index}"] = np.asarray(value)
        else:
            payload[f"{prefix}{slot}/__scalar__"] = np.asarray(entries)


def _store_slot(slots, rest, value):
    slot, _, index = rest.partition("/")
    if index == "__scalar__":
        slots[slot] = value[()]
    else:
        slots.setdefault(slot, {})[int(index)] = value


def module_rng_states(model):
    """Bit-generator states of every RNG stream a model's modules hold.

    Stochastic layers (dropout) carry their own generator that advances
    with every training forward; a resumed replica must continue those
    streams, not restart them.
    """
    return {
        name: rng.bit_generator.state for name, rng in model.named_rngs()
    }


def restore_module_rngs(model, states):
    """Re-position a model's module RNG streams from :func:`module_rng_states`."""
    if not states:
        return
    for name, rng in model.named_rngs():
        if name in states:
            rng.bit_generator.state = states[name]


@dataclass
class ClusterCheckpoint:
    """In-memory image of a persisted cluster checkpoint."""

    state: dict
    version: int
    epoch: int
    rng_state: dict | None = None
    best_score: float | None = None
    best_state: dict | None = None
    optimizer_slots: dict = field(default_factory=dict)
    worker_slots: dict = field(default_factory=dict)
    worker_rngs: dict = field(default_factory=dict)
    driver_rngs: dict = field(default_factory=dict)

    def make_rng(self):
        """A generator positioned exactly where the run's RNG was."""
        if self.rng_state is None:
            raise SerializationError("checkpoint carries no RNG state")
        rng = spawn_rng(0, "checkpoint", "restore")
        rng.bit_generator.state = self.rng_state
        return rng


def save_checkpoint(path, ps, epoch, rng=None, tracker=None, workers=None,
                    driver_model=None):
    """Persist the cluster's recoverable state to ``path`` (.npz).

    ``ps`` is the :class:`~repro.distributed.ps.ParameterServer`; ``rng``
    the driver generator threading through the epochs; ``tracker`` the
    :class:`~repro.core.selection.BestTracker` holding the best snapshot;
    ``workers`` the live :class:`~repro.distributed.worker.Worker` list,
    whose inner-optimizer slots and model RNG streams are captured per
    worker id; ``driver_model`` the driver's evaluation replica.
    """
    payload = {}
    for name, value in ps.full_state().items():
        payload[_STATE + name] = value
    _pack_slots(payload, _OPT, ps.optimizer_slots())
    for worker in workers or ():
        _pack_slots(payload, f"{_WKR}{worker.worker_id}/",
                    worker.optimizer.state_slots())
    meta = {
        "epoch": int(epoch),
        "version": int(ps.version),
        "rng": None if rng is None else rng.bit_generator.state,
        "best_score": None if tracker is None or tracker.best is None
        else float(tracker.best_score),
        "worker_rngs": {
            str(worker.worker_id): module_rng_states(worker.model)
            for worker in workers or ()
        },
        "driver_rngs": None if driver_model is None
        else module_rng_states(driver_model),
    }
    if tracker is not None and tracker.best is not None:
        if not isinstance(tracker.best, dict):
            raise TypeError("only state-dict trackers can be checkpointed")
        for name, value in tracker.best.items():
            payload[_BEST + name] = value
    payload["ckpt/meta"] = np.array(json.dumps(meta))
    save_state(path, payload)
    return path


def load_checkpoint(path):
    """Load a :class:`ClusterCheckpoint` saved by :func:`save_checkpoint`.

    Raises :class:`~repro.nn.serialization.SerializationError` when the
    archive is corrupt (checksum mismatch) or structurally not a
    checkpoint.
    """
    payload = load_state(path, require_checksum=True)
    if "ckpt/meta" not in payload:
        raise SerializationError(f"{path!s} is not a cluster checkpoint")
    meta = json.loads(str(payload.pop("ckpt/meta")[()]))
    state, best, slots, worker_slots = {}, {}, {}, {}
    for key, value in payload.items():
        if key.startswith(_STATE):
            state[key[len(_STATE):]] = value
        elif key.startswith(_BEST):
            best[key[len(_BEST):]] = value
        elif key.startswith(_OPT):
            _store_slot(slots, key[len(_OPT):], value)
        elif key.startswith(_WKR):
            wid, _, rest = key[len(_WKR):].partition("/")
            _store_slot(worker_slots.setdefault(int(wid), {}), rest, value)
        else:
            raise SerializationError(
                f"unrecognized key {key!r} in checkpoint archive"
            )
    return ClusterCheckpoint(
        state=state,
        version=int(meta["version"]),
        epoch=int(meta["epoch"]),
        rng_state=meta.get("rng"),
        best_score=meta.get("best_score"),
        best_state=best or None,
        optimizer_slots=slots,
        worker_slots=worker_slots,
        worker_rngs={
            int(wid): states
            for wid, states in (meta.get("worker_rngs") or {}).items()
        },
        driver_rngs=meta.get("driver_rngs") or {},
    )
