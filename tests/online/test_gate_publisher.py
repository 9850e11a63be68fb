"""Validation gate + gated publisher: accept, reject, rollback, quarantine."""

from __future__ import annotations

import json

import pytest

from repro.core import TrainConfig, train_space
from repro.data.batching import full_batch
from repro.metrics import auc_score
from repro.models import build_model
from repro.online import GateConfig, GatedPublisher, ValidationGate
from repro.serving import SnapshotStore
from repro.utils.seeding import spawn_rng

from tests.conftest import make_tiny_dataset
from tests.online.conftest import make_stream_model
from tests.online.test_trainer import make_trainer

pytestmark = pytest.mark.online


@pytest.fixture(scope="module")
def candidate(stream, skeleton):
    """A real incremental update: (states, default_state, holdouts)."""
    config = TrainConfig(epochs=1, batch_size=64, inner_steps=2, dn_rounds=1,
                         sample_k=1, dr_steps=1)
    trainer = make_trainer(stream, skeleton, config)
    trainer.ingest(stream.window(0))
    trainer.ingest(stream.window(1))
    update = trainer.update(key=1)
    return update.states, update.default_state, dict(trainer.holdouts)


def corrupt(states, scale=5.0, seed=99):
    rng = spawn_rng(seed, "test", "corrupt")
    return {
        domain: {
            name: value + rng.normal(0.0, scale, size=value.shape)
            for name, value in state.items()
        }
        for domain, state in states.items()
    }


def make_publisher(skeleton, keep=3, gate_config=None):
    store = SnapshotStore(keep=keep)
    # The unit-test holdouts are tiny (a couple dozen rows), well below the
    # production min_samples floor — enforce on everything, and leave
    # calibration slack so accept/reject hinges on the AUC-drop guard.
    gate = ValidationGate(
        make_stream_model(skeleton),
        gate_config or GateConfig(min_samples=2, max_ctr_ratio_error=5.0),
    )
    return GatedPublisher(store, gate), store


# ----------------------------------------------------------------------
# Gate config and decisions
# ----------------------------------------------------------------------
def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(max_auc_drop=-0.1)
    with pytest.raises(ValueError):
        GateConfig(max_ctr_ratio_error=0.0)
    with pytest.raises(ValueError):
        GateConfig(min_samples=1)
    with pytest.raises(ValueError):
        GateConfig(bootstrap_ctr_slack=0.5)


def test_gate_requires_scoreable_holdout(skeleton, candidate):
    states, _default, _holdouts = candidate
    gate = ValidationGate(make_stream_model(skeleton))
    with pytest.raises(ValueError, match="scoreable"):
        gate.evaluate(states, holdouts={})


def test_decision_is_json_serializable(skeleton, candidate):
    states, _default, holdouts = candidate
    gate = ValidationGate(make_stream_model(skeleton))
    decision = gate.evaluate(states, holdouts)
    payload = json.loads(json.dumps(decision.as_dict()))
    assert payload["accepted"] == decision.accepted
    assert set(payload["domains"]) == {str(d) for d in decision.verdicts}
    for verdict in payload["domains"].values():
        assert {"auc", "auc_drop", "calibration_error",
                "enforced"} <= set(verdict)


def test_small_domains_cannot_veto(skeleton, candidate):
    """Below min_samples a domain is scored but never enforced, so even a
    wrecked candidate passes when every holdout is tiny."""
    states, _default, holdouts = candidate
    gate = ValidationGate(
        make_stream_model(skeleton),
        GateConfig(min_samples=10_000, max_ctr_ratio_error=1e-6),
    )
    decision = gate.evaluate(corrupt(states), holdouts)
    assert decision.accepted
    assert all(not v.enforced for v in decision.verdicts.values())


def test_bootstrap_slack_widens_calibration_only_without_baseline(
        skeleton, candidate):
    """The calibration bound relaxes by bootstrap_ctr_slack only for the
    bootstrap publication (no baseline to roll back to)."""
    states, default, holdouts = candidate
    probe = ValidationGate(make_stream_model(skeleton))
    ratios = [
        probe.evaluate(states, holdouts).verdicts[d].calibration_error
        for d in probe.evaluate(states, holdouts).verdicts
    ]
    worst = max(ratios)
    assert worst > 0.0
    gate = ValidationGate(
        make_stream_model(skeleton),
        GateConfig(max_auc_drop=10.0, max_ctr_ratio_error=worst * 0.9,
                   min_samples=2, bootstrap_ctr_slack=2.0),
    )
    # Bootstrap: bound is 1.8x the worst observed error — passes.
    assert gate.evaluate(states, holdouts, baseline=None).accepted
    # With a served baseline the strict bound applies — the same candidate
    # now fails calibration.
    baseline = SnapshotStore().publish_states(states, default_state=default)
    decision = gate.evaluate(states, holdouts, baseline=baseline)
    assert not decision.accepted
    assert any("miscalibrated" in reason for reason in decision.reasons)


# ----------------------------------------------------------------------
# Publisher: accept / reject / rollback
# ----------------------------------------------------------------------
def test_accept_path_publishes_and_records(skeleton, candidate):
    states, default, holdouts = candidate
    publisher, store = make_publisher(skeleton)
    first = publisher.publish(states, default, holdouts, key="boot")
    assert first.accepted and first.version == 1
    # Republishing identical states against themselves: zero AUC drop,
    # identical calibration — must clear every guard.
    second = publisher.publish(states, default, holdouts, key=2)
    assert second.accepted
    assert second.version == second.served_version == 2
    assert store.version == 2
    assert publisher.accepted_versions == [1, 2]
    assert store.current().metadata["update_key"] == 2
    assert publisher.quarantine == []


def test_reject_rolls_back_and_quarantines(skeleton, candidate):
    states, default, holdouts = candidate
    publisher, store = make_publisher(skeleton)
    publisher.publish(states, default, holdouts, key=1)
    result = publisher.publish(
        corrupt(states), default, holdouts, key=2
    )
    assert not result.accepted
    assert result.version == 2
    assert result.served_version == 1
    assert store.version == 1           # serving the last good version
    record = result.quarantine
    assert record is publisher.quarantine[0]
    assert record.version == 2
    assert record.rolled_back_to == 1
    assert record.key == 2
    assert record.reasons                # diagnosable, not a silent skip
    assert json.loads(json.dumps(record.as_dict()))["version"] == 2
    # The pipeline keeps going: the next good candidate publishes cleanly.
    recovery = publisher.publish(states, default, holdouts, key=3)
    assert recovery.accepted
    assert store.version == recovery.version


def test_rollback_survives_retention_pressure(skeleton, candidate):
    """keep=1 is the worst case: the baseline must still be retained when
    the gate fails, because _prune never evicts the rollback anchor."""
    states, default, holdouts = candidate
    publisher, store = make_publisher(skeleton, keep=1)
    publisher.publish(states, default, holdouts, key=1)
    result = publisher.publish(corrupt(states), default, holdouts, key=2)
    assert not result.accepted
    assert store.version == 1


def test_bootstrap_failure_raises(skeleton, candidate):
    states, default, holdouts = candidate
    publisher, store = make_publisher(
        skeleton, gate_config=GateConfig(max_ctr_ratio_error=1e-9,
                                         min_samples=2),
    )
    with pytest.raises(RuntimeError, match="bootstrap"):
        publisher.publish(states, default, holdouts, key=0)
    assert publisher.quarantine      # still recorded for diagnosis


# ----------------------------------------------------------------------
# Row-path scoring is the full-load scoring, bit for bit
# ----------------------------------------------------------------------
class FullLoadGate(ValidationGate):
    """The gate as it scored before the row path: whole tables per state."""

    def score_state(self, state, holdout, domain):
        self.model.load_state_dict(state)
        scores = self.model.predict(full_batch(holdout, domain))
        return float(auc_score(holdout.labels, scores)), float(scores.mean())


def trained_states(model_name, dataset, seed):
    """``({domain: Θ_i}, θ_S)`` of a short seeded MAMDR run."""
    config = TrainConfig(epochs=3, batch_size=32, inner_steps=2,
                         dr_steps=1, sample_k=1)
    space = train_space(build_model(model_name, dataset, seed=0), dataset,
                        config, spawn_rng(seed, "test", "row-path"))
    states = {d: space.combined(d) for d in range(dataset.n_domains)}
    return states, space.shared


def rng_states(model):
    return [
        module._rng.bit_generator.state
        for _name, module in model.named_modules() if hasattr(module, "_rng")
    ]


@pytest.mark.parametrize("model_name, feature_mode, row_path", [
    ("mlp", "trainable", True),
    ("mlp", "fixed", False),       # Taobao encoder: no id tables, full load
    ("star", "trainable", True),
])
def test_row_path_decisions_equal_full_load(model_name, feature_mode,
                                            row_path):
    dataset = make_tiny_dataset(feature_mode)
    probe = build_model(model_name, dataset, seed=0)
    reference = build_model(model_name, dataset, seed=0)
    served, shared = trained_states(model_name, dataset, seed=1)
    candidate, _ = trained_states(model_name, dataset, seed=2)
    holdouts = {d: dataset.domain(d).train for d in range(dataset.n_domains)}
    baseline = SnapshotStore().publish_states(served, default_state=shared)
    config = GateConfig(min_samples=2, max_auc_drop=0.3)
    gate = ValidationGate(probe, config)
    assert bool(gate._loader.field_map) == row_path
    oracle = FullLoadGate(reference, config)
    before = rng_states(probe)

    def digest(decision):
        return json.dumps(decision.as_dict(), sort_keys=True)

    clean = gate.evaluate(candidate, holdouts, baseline=baseline)
    assert clean.accepted
    assert digest(clean) == digest(
        oracle.evaluate(candidate, holdouts, baseline=baseline)
    )
    assert digest(gate.evaluate(candidate, holdouts)) == digest(
        oracle.evaluate(candidate, holdouts)
    )
    broken = corrupt(candidate)
    rejected = gate.evaluate(broken, holdouts, baseline=baseline)
    expected = oracle.evaluate(broken, holdouts, baseline=baseline)
    assert not rejected.accepted and rejected.reasons
    assert rejected.reasons == expected.reasons
    assert digest(rejected) == digest(expected)
    # Probing is invisible to training: mode and dropout RNG untouched.
    assert probe.training
    assert rng_states(probe) == before
