"""The Session facade: one config, every training path, exact parity."""

from __future__ import annotations

import json

import pytest

from repro.core import TrainConfig
from repro.distributed import FaultPlan, RetryPolicy, SimulatedCluster
from repro.frameworks import framework_by_name
from repro.metrics import evaluate_bank
from repro.models import build_model
from repro.nn.state import state_checksum
from repro.train import DistributedConfig, Session, SessionConfig


# ----------------------------------------------------------------------
# Config validation and serialization
# ----------------------------------------------------------------------
def test_config_is_frozen():
    config = SessionConfig()
    with pytest.raises(AttributeError):
        config.model = "star"


def test_nested_dicts_are_coerced():
    config = SessionConfig(
        train={"epochs": 3, "batch_size": 16},
        distributed={"n_workers": 2, "mode": "sync",
                     "faults": {"seed": 4, "drop_rate": 0.1},
                     "retry": {"max_attempts": 3}},
    )
    assert isinstance(config.train, TrainConfig)
    assert config.train.epochs == 3
    assert isinstance(config.distributed, DistributedConfig)
    assert isinstance(config.distributed.faults, FaultPlan)
    assert isinstance(config.distributed.retry, RetryPolicy)
    assert config.distributed.retry.max_attempts == 3


def test_invalid_distributed_mode_rejected():
    with pytest.raises(ValueError):
        DistributedConfig(mode="chaotic")
    with pytest.raises(ValueError):
        DistributedConfig(n_workers=0)


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown session config keys"):
        SessionConfig.from_dict({"modell": "mlp"})


def test_json_roundtrip_with_faults(tmp_path):
    config = SessionConfig(
        dataset="taobao10_sim", scale=0.25, model="mlp", seed=3,
        train={"epochs": 2},
        distributed={
            "n_workers": 3, "mode": "async", "heartbeat_timeout": 1,
            "faults": {"seed": 7, "drop_rate": 0.05, "duplicate_rate": 0.1,
                       "crash_after": {"1": 15}},
        },
    )
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = SessionConfig.from_file(path)
    assert loaded == config
    assert loaded.distributed.faults.crashes_at(1, 15)


def test_method_label_defaults():
    assert SessionConfig(model="mlp", framework="mamdr").method_label == "mlp+mamdr"
    assert SessionConfig(
        distributed=DistributedConfig(n_workers=2)
    ).method_label == "mlp+cluster"
    assert SessionConfig(method="custom").method_label == "custom"


# ----------------------------------------------------------------------
# Parity with the underlying construction paths
# ----------------------------------------------------------------------
def test_framework_session_matches_manual_construction(tiny_dataset,
                                                       fast_config):
    session = Session(
        SessionConfig(dataset=tiny_dataset.name, model="mlp",
                      framework="alternate", seed=0, train=fast_config),
        dataset=tiny_dataset,
    )
    result = session.fit()
    assert result.stats is None

    model = build_model("mlp", tiny_dataset, seed=0)
    bank = framework_by_name("alternate").fit(model, tiny_dataset,
                                              fast_config, seed=0)
    report = evaluate_bank(bank, tiny_dataset, method="manual")
    assert result.mean_auc == pytest.approx(report.mean_auc, abs=0.0)
    assert state_checksum(result.bank.model.state_dict()) == state_checksum(
        bank.model.state_dict()
    )


def test_distributed_session_matches_manual_cluster(tiny_dataset,
                                                    fast_config):
    session = Session(
        SessionConfig(
            dataset=tiny_dataset.name, model="mlp", seed=1, model_seed=0,
            train=fast_config,
            distributed=DistributedConfig(n_workers=3, mode="async"),
        ),
        dataset=tiny_dataset,
    )
    result = session.fit()
    assert result.stats is not None and "ps_version" in result.stats

    cluster = SimulatedCluster(n_workers=3, mode="async")
    bank = cluster.run(
        lambda worker_id: build_model("mlp", tiny_dataset, seed=0),
        tiny_dataset, fast_config, seed=1,
    )
    assert state_checksum(result.bank.model.state_dict()) == state_checksum(
        bank.model.state_dict()
    )


def test_session_accepts_plain_dict(tiny_dataset, fast_config):
    session = Session(
        {"dataset": tiny_dataset.name, "model": "mlp",
         "framework": "alternate", "seed": 0,
         "train": {"epochs": 2, "batch_size": 32, "inner_steps": 3,
                   "dr_steps": 2, "sample_k": 1, "finetune_steps": 4}},
        dataset=tiny_dataset,
    )
    assert isinstance(session.config, SessionConfig)
    result = session.fit()
    assert 0.0 <= result.mean_auc <= 1.0


def test_chaos_session_runs_and_reports_recovery(tiny_dataset, fast_config):
    session = Session(
        SessionConfig(
            dataset=tiny_dataset.name, model="mlp", seed=1, model_seed=0,
            train=fast_config,
            distributed=DistributedConfig(
                n_workers=3, mode="async", heartbeat_timeout=1,
                faults=FaultPlan(seed=5, drop_rate=0.1, duplicate_rate=0.1),
            ),
        ),
        dataset=tiny_dataset,
    )
    result = session.fit()
    assert result.stats["crashes"] == []
    assert session.cluster is not None


def test_run_method_goes_through_session(tiny_dataset, fast_config):
    """run_method is rewired through Session — same report as before."""
    from repro.experiments.runner import MethodSpec, run_method

    report = run_method(
        MethodSpec(name="MLP+Alternate", model="mlp", framework="alternate"),
        tiny_dataset, config=fast_config, seed=0,
    )
    assert report.method == "MLP+Alternate"

    model = build_model("mlp", tiny_dataset, seed=0)
    bank = framework_by_name("alternate").fit(model, tiny_dataset,
                                              fast_config, seed=0)
    manual = evaluate_bank(bank, tiny_dataset, method="MLP+Alternate")
    assert report.mean_auc == pytest.approx(manual.mean_auc, abs=0.0)


# ----------------------------------------------------------------------
# ConfigError, the online section, and warm starts
# ----------------------------------------------------------------------
def test_config_errors_are_one_catchable_type():
    from repro.train import ConfigError

    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ConfigError, match="unknown session config keys"):
        SessionConfig.from_dict({"modell": "mlp"})
    with pytest.raises(ConfigError, match="'train' section"):
        SessionConfig(train={"epochz": 3})
    with pytest.raises(ConfigError, match="'distributed.faults' section"):
        SessionConfig(distributed={"faults": {"drop_ratee": 0.1}})
    with pytest.raises(ConfigError, match="'online' section"):
        SessionConfig(online=[1, 2, 3])


def test_online_and_warm_start_round_trip(tmp_path):
    config = SessionConfig(
        model="mlp", seed=5,
        warm_start_snapshot="artifacts/day0.rp",
        online={"bootstrap_windows": 2,
                "stream": {"n_windows": 6, "drift_rate": 0.1}},
    )
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = SessionConfig.from_file(path)
    assert loaded == config
    assert loaded.warm_start_snapshot == "artifacts/day0.rp"
    assert loaded.online["stream"]["drift_rate"] == 0.1
    # defaults stay None and survive the round trip too
    bare = SessionConfig.from_dict(json.loads(
        json.dumps(SessionConfig().to_dict())
    ))
    assert bare.warm_start_snapshot is None and bare.online is None


def test_warm_start_snapshot_seeds_the_model(tiny_dataset, fast_config,
                                             tmp_path):
    from repro.serving import SnapshotStore

    trained = build_model("mlp", tiny_dataset, seed=0)
    state = {n: v + 0.5 for n, v in trained.state_dict().items()}
    path = tmp_path / "day0.rp"
    store = SnapshotStore()
    store.publish_states({}, default_state=state)
    store.save(path)

    session = Session(
        SessionConfig(dataset=tiny_dataset.name, model="mlp", seed=0,
                      train=fast_config, warm_start_snapshot=str(path)),
        dataset=tiny_dataset,
    )
    model = session.build_model(tiny_dataset)
    assert state_checksum(model.state_dict()) == state_checksum(state)


def test_warm_start_archive_without_default_state_rejected(tiny_dataset,
                                                           tmp_path):
    from repro.serving import SnapshotStore
    from repro.train import ConfigError

    trained = build_model("mlp", tiny_dataset, seed=0)
    path = tmp_path / "bank.rp"
    store = SnapshotStore()
    store.publish_states({0: trained.state_dict()})
    store.save(path)
    session = Session(
        SessionConfig(dataset=tiny_dataset.name, model="mlp",
                      warm_start_snapshot=str(path)),
        dataset=tiny_dataset,
    )
    with pytest.raises(ConfigError, match="no default"):
        session.build_model(tiny_dataset)


def test_online_section_feeds_the_sim_config():
    from repro.online import build_sim_config
    from repro.train import ConfigError

    config = SessionConfig(
        model="mlp", seed=9, train={"epochs": 1, "dn_rounds": 2},
        online={"bootstrap_windows": 2,
                "stream": {"n_windows": 6, "window_events": 240},
                "inject_regression_at": 3},
    )
    sim = build_sim_config(config)
    assert sim.seed == 9                       # inherits the session seed
    assert sim.train is config.train           # and the session schedule
    assert sim.stream.n_windows == 6
    assert sim.inject_regression_at == 3
    with pytest.raises(ConfigError, match="unknown online config keys"):
        build_sim_config(SessionConfig(online={"bootstrap_windowz": 2}))
