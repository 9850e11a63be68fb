"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out and "fig9" in out
    assert "amazon6_sim" in out


def test_stats_command(capsys):
    assert main(["stats", "taobao10_sim", "--scale", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "D1" in out and "CTR Ratio" in out


def test_run_requires_known_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "table99"])


def test_seed_parsing():
    parser = build_parser()
    args = parser.parse_args(["run", "fig9", "--seeds", "0,3,5"])
    assert args.seeds == (0, 3, 5)
    args = parser.parse_args(["run", "fig9"])
    assert args.seeds == (0,)


def test_run_fig9_tiny(capsys):
    """End-to-end CLI run on a deliberately tiny configuration."""
    assert main([
        "run", "fig9", "--scale", "0.25", "--seeds", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "Figure 9 analogue" in out


def test_train_requires_config():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["train"])


def test_online_sim_accepts_config():
    parser = build_parser()
    args = parser.parse_args(["online-sim", "--config", "session.json"])
    assert args.config == "session.json"
    assert args.seed is None


@pytest.mark.parametrize("flags, seed", [([], 3), (["--seed", "0"], 0),
                                         (["--seed", "5"], 5)],
                         ids=["config-seed", "seed-0", "seed-5"])
def test_online_sim_seed_flag_overrides_the_config(tmp_path, monkeypatch,
                                                   flags, seed):
    """``--seed 0`` is a seed like any other, not "unset"."""
    import json

    import repro.online.sim as sim

    class Captured(Exception):
        pass

    def capture(config, verbose=False):
        raise Captured(config)

    monkeypatch.setattr(sim, "run_online_sim", capture)
    path = tmp_path / "session.json"
    path.write_text(json.dumps({"seed": 3}))
    with pytest.raises(Captured) as caught:
        main(["online-sim", "--config", str(path), *flags])
    assert caught.value.args[0].seed == seed


def test_train_command_distributed(tmp_path, capsys):
    """``train --config`` drives a chaos cluster run from one JSON file."""
    import json

    config = {
        "dataset": "taobao10_sim",
        "scale": 0.1,
        "model": "mlp",
        "seed": 0,
        "train": {"epochs": 2, "batch_size": 32, "inner_steps": 2,
                  "dr_steps": 1, "sample_k": 1, "finetune_steps": 2},
        "distributed": {
            "n_workers": 2,
            "mode": "async",
            "heartbeat_timeout": 1,
            "faults": {"seed": 3, "drop_rate": 0.05, "duplicate_rate": 0.05},
        },
    }
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean AUC" in out
    assert "cluster:" in out and "ps_version=" in out
