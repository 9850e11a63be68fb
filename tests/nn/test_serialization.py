"""Persistence of states and per-domain banks through the ``RPROCOL1``
container (:func:`repro.data.columnar.write_arrays`, ``SnapshotStore``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.columnar import SerializationError, read_arrays, write_arrays
from repro.models import build_model
from repro.nn.state import state_allclose, state_checksum, state_scale
from repro.serving import SnapshotStore


def _save_bank(path, domain_states, default_state=None):
    store = SnapshotStore()
    store.publish_states(domain_states, default_state=default_state)
    store.save(path)


def _load_bank(path):
    snapshot = SnapshotStore().load(path)
    return snapshot.states, snapshot.default_state


def test_state_round_trip(tmp_path, tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    state = model.state_dict()
    path = tmp_path / "state.rp"
    write_arrays(path, state, kind="state")
    loaded, _ = read_arrays(path, kind="state")
    assert state_allclose(state, loaded)
    # loading into a fresh model works
    other = build_model("mlp", tiny_dataset, seed=99)
    other.load_state_dict(loaded)
    assert state_allclose(other.state_dict(), state)


def test_bank_round_trip(tmp_path, tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    base = model.state_dict()
    domain_states = {0: base, 2: state_scale(base, 2.0)}
    path = tmp_path / "bank.rp"
    _save_bank(path, domain_states, default_state=base)
    loaded_states, loaded_default = _load_bank(path)
    assert set(loaded_states) == {0, 2}
    assert state_allclose(loaded_states[2], state_scale(base, 2.0))
    assert state_allclose(loaded_default, base)


def test_bank_without_default(tmp_path, tiny_dataset):
    model = build_model("mlp", tiny_dataset, seed=0)
    path = tmp_path / "bank.rp"
    _save_bank(path, {1: model.state_dict()})
    states, default = _load_bank(path)
    assert default is None
    assert set(states) == {1}


def test_empty_bank_rejected(tmp_path):
    path = tmp_path / "x.rp"
    with pytest.raises(LookupError):
        SnapshotStore().save(path)
    assert not path.exists()


def test_checksum_is_order_independent_and_value_sensitive():
    a = {"x": np.arange(4.0), "y": np.ones((2, 2))}
    b = {"y": np.ones((2, 2)), "x": np.arange(4.0)}
    assert state_checksum(a) == state_checksum(b)
    c = {"x": np.arange(4.0), "y": np.ones((2, 2)) + 1e-12}
    assert state_checksum(a) != state_checksum(c)
    # renaming a key changes the digest even with identical values
    d = {"x2": np.arange(4.0), "y": np.ones((2, 2))}
    assert state_checksum(a) != state_checksum(d)


def _edit(path, edit):
    """Apply ``edit`` to the file's raw bytes in place."""
    data = bytearray(path.read_bytes())
    edit(data)
    path.write_bytes(bytes(data))


def test_load_rejects_bitflipped_payload(tmp_path):
    path = tmp_path / "state.rp"
    write_arrays(path, {"w": np.arange(6.0)}, kind="state")

    def flip(data):
        data[64 + 3 * 8] ^= 0x01     # one bit of w[3]

    _edit(path, flip)
    with pytest.raises(SerializationError, match="checksum"):
        read_arrays(path, kind="state")


def test_load_rejects_renamed_key(tmp_path):
    path = tmp_path / "state.rp"
    write_arrays(path, {"w": np.arange(6.0)}, kind="state")

    def rename(data):
        at = data.index(b'"name": "w"')
        data[at:at + 11] = b'"name": "v"'

    _edit(path, rename)
    with pytest.raises(SerializationError, match="checksum"):
        read_arrays(path, kind="state")


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "state.rp"
    write_arrays(path, {"w": np.arange(6.0)}, kind="state")

    def garble(data):
        data[-9:] = b"not json{"

    _edit(path, garble)
    with pytest.raises(SerializationError, match="header"):
        read_arrays(path, kind="state")


def test_load_rejects_newer_format_version(tmp_path, monkeypatch):
    import repro.data.columnar as columnar

    path = tmp_path / "state.rp"
    monkeypatch.setattr(columnar, "COLUMNAR_FORMAT_VERSION", 99)
    write_arrays(path, {"w": np.arange(6.0)}, kind="state")
    monkeypatch.undo()
    with pytest.raises(SerializationError, match="format version 99"):
        read_arrays(path, kind="state")


def test_load_unreadable_file_raises_serialization_error(tmp_path):
    path = tmp_path / "broken.rp"
    path.write_bytes(b"this is not a columnar file" * 4)
    with pytest.raises(SerializationError, match="bad magic"):
        read_arrays(path, kind="state")


def test_serialization_error_is_a_value_error():
    # callers catching the historic ValueError keep working
    assert issubclass(SerializationError, ValueError)


def test_serving_from_reloaded_bank(tmp_path, tiny_dataset, fast_config):
    """A trained StateBank survives a snapshot save/load round trip with
    identical predictions — the deployment path of Figure 2."""
    from repro.core import MAMDR
    from repro.data import sample_batch
    from repro.frameworks import StateBank

    model = build_model("mlp", tiny_dataset, seed=0)
    bank = MAMDR().fit(model, tiny_dataset, fast_config, seed=0)
    path = tmp_path / "deploy.rp"
    _save_bank(path, bank.domain_states, default_state=bank.default_state)

    states, default = _load_bank(path)
    model2 = build_model("mlp", tiny_dataset, seed=123)
    bank2 = StateBank(model2, states, default_state=default)

    rng = np.random.default_rng(0)
    batch = sample_batch(tiny_dataset.domain(1).test, 1, 16, rng)
    np.testing.assert_allclose(bank.scores(batch), bank2.scores(batch))
