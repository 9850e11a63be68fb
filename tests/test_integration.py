"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import pytest

from repro.core import MAMDR, TrainConfig
from repro.data import amazon6_sim, taobao_sim
from repro.distributed import SimulatedCluster
from repro.experiments import MethodSpec, run_comparison
from repro.frameworks import Alternate
from repro.metrics import evaluate_bank
from repro.models import build_model


@pytest.fixture(scope="module")
def small_amazon():
    return amazon6_sim(scale=0.4, seed=7)


def test_quickstart_path_learns(small_amazon):
    """The README quickstart flow must produce a model far above chance."""
    config = TrainConfig(epochs=6)
    model = build_model("mlp", small_amazon, seed=7)
    bank = MAMDR().fit(model, small_amazon, config, seed=7)
    report = evaluate_bank(bank, small_amazon, method="MLP+MAMDR")
    assert report.mean_auc > 0.62


def test_mamdr_beats_untrained_and_tracks_alternate(small_amazon):
    config = TrainConfig(epochs=6)
    alternate_model = build_model("mlp", small_amazon, seed=7)
    alternate = evaluate_bank(
        Alternate().fit(alternate_model, small_amazon, config, seed=7),
        small_amazon,
    ).mean_auc
    mamdr_model = build_model("mlp", small_amazon, seed=7)
    mamdr = evaluate_bank(
        MAMDR().fit(mamdr_model, small_amazon, config, seed=7),
        small_amazon,
    ).mean_auc
    # MAMDR must be at least competitive with alternate training here; the
    # full shape claims live in the benchmark harness.
    assert mamdr > alternate - 0.02


def test_distributed_quickstart(small_amazon):
    config = TrainConfig(epochs=3)
    cluster = SimulatedCluster(n_workers=2)
    bank = cluster.run(
        lambda wid: build_model("mlp", small_amazon, seed=7),
        small_amazon, config, seed=7,
    )
    report = evaluate_bank(bank, small_amazon)
    assert report.mean_auc > 0.58


def test_experiment_runner_mini_table():
    dataset = taobao_sim(10, scale=0.3, seed=5)
    config = TrainConfig(epochs=2, inner_steps=3, sample_k=1, dr_steps=2)
    specs = [
        MethodSpec("MLP", model="mlp"),
        MethodSpec("MLP+MAMDR", model="mlp", framework="mamdr"),
    ]
    result = run_comparison(specs, dataset, config=config, seed=5)
    rendered = result.render()
    assert "MLP+MAMDR" in rendered
    ranks = result.rank
    assert set(ranks.values()) <= {1.0, 1.5, 2.0} or all(
        1.0 <= r <= 2.0 for r in ranks.values()
    )


def test_model_agnosticism_across_zoo(small_amazon):
    """MAMDR must run on a structurally diverse subset of the zoo."""
    config = TrainConfig(epochs=1, inner_steps=2, sample_k=1, dr_steps=1)
    for name in ("wdl", "autoint", "star", "mmoe"):
        model = build_model(name, small_amazon, seed=1)
        bank = MAMDR().fit(model, small_amazon, config, seed=1)
        report = evaluate_bank(bank, small_amazon, method=name)
        assert len(report.per_domain) == small_amazon.n_domains


def test_reproducibility_end_to_end(small_amazon):
    config = TrainConfig(epochs=2, inner_steps=3, sample_k=1, dr_steps=2)

    def run():
        model = build_model("mlp", small_amazon, seed=3)
        bank = MAMDR().fit(model, small_amazon, config, seed=3)
        return evaluate_bank(bank, small_amazon).per_domain

    assert run() == run()
