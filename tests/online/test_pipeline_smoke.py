"""End-to-end continual-learning smoke: ingest → update → gate → serve."""

from __future__ import annotations

import pytest

from repro.online import OnlineSimConfig, render_online_sim, run_online_sim
from repro.train import ConfigError

pytestmark = [pytest.mark.online, pytest.mark.online_smoke]


def smoke_config(**overrides):
    base = dict(
        stream={"n_domains": 3, "n_users": 120, "n_items": 80,
                "latent_dim": 6, "n_windows": 5, "window_events": 240,
                "drift_rate": 0.2, "seed": 0},
        bootstrap_windows=2, bootstrap_updates=1, inject_regression_at=3,
        replay_capacity=600, holdout_capacity=150, parity_samples=32,
        seed=0,
    )
    base.update(overrides)
    return OnlineSimConfig(**base)


@pytest.fixture(scope="module")
def results():
    return run_online_sim(smoke_config())


def test_pipeline_publishes_and_catches_injected_regression(results):
    publications = results["publications"]
    assert publications["accepted"] >= 2
    assert publications["rejected"] == 1
    quarantined = publications["quarantine"][0]
    assert quarantined["key"] == 3          # the injected window
    assert quarantined["rolled_back_to"] in publications["accepted_versions"]
    assert quarantined["reasons"]
    # The final accepted version is what serving answers from.
    assert publications["served_version"] == max(
        publications["accepted_versions"]
    )


def test_serving_parity_is_bit_exact(results):
    assert results["parity"]["exact"]
    assert results["parity"]["max_abs_diff"] == 0.0
    assert results["parity"]["n_requests"] > 0


def test_prequential_records_cover_steady_state(results):
    records = results["auc_over_time"]
    assert [r["window"] for r in records] == [2, 3, 4]
    for record in records:
        assert 0.0 <= record["incremental_auc"] <= 1.0
        assert 0.0 <= record["frozen_auc"] <= 1.0
        assert record["max_item_psi"] >= 0.0
    assert records[1]["injected_regression"]
    assert not records[1]["accepted"]
    assert records[-1]["accepted"]


def test_throughput_and_staleness_are_recorded(results):
    assert results["events"]["total"] == 5 * 240
    assert results["updates"] == 4   # 1 bootstrap + 3 steady
    assert results["staleness"]["max_windows"] >= 0


def test_render_summarizes_the_run(results):
    rendered = render_online_sim(results)
    assert "Online continual-learning simulation" in rendered
    assert "events: 1200, updates: 4" in rendered
    assert "serving parity: bit-exact" in rendered


def test_default_stream_incremental_beats_frozen_day0():
    """The default drifted stream: the incremental model must beat the
    frozen day-0 model once drift has rotated the world away."""
    results = run_online_sim(OnlineSimConfig())
    publications = results["publications"]
    assert publications["accepted"] >= 3
    assert publications["rejected"] == 1
    post = results["post_drift_auc"]
    assert post["gain"] > 0, (
        f"incremental updates stopped paying off under drift: "
        f"incremental {post['incremental']:.4f} vs frozen "
        f"{post['frozen']:.4f}"
    )
    assert results["staleness"]["mean_windows"] <= 2.0


def test_config_validation_uses_config_error():
    with pytest.raises(ConfigError, match="bootstrap_windows"):
        smoke_config(bootstrap_windows=5)
    with pytest.raises(ConfigError, match="inject_regression_at"):
        smoke_config(inject_regression_at=4)
    with pytest.raises(ConfigError, match="'stream' section"):
        smoke_config(stream={"n_windowz": 5})
