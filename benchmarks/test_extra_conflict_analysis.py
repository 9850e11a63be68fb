"""Extra: quantify the domain-conflict phenomenon of Figure 3.

Measures pairwise gradient inner-products across domains at initialization
and after alternate vs DN training.  Verifies the synthetic benchmarks
actually contain conflicting domains (negative pairwise inner products) —
the premise of the whole paper.
"""

import numpy as np
from conftest import emit

from repro.analysis import conflict_report
from repro.core import DomainNegotiation, TrainConfig
from repro.data import taobao_sim
from repro.frameworks import Alternate
from repro.models import build_model
from repro.utils.tables import format_table


def run_conflict_analysis(seed=0):
    dataset = taobao_sim(10, scale=0.8, seed=seed)
    rng = np.random.default_rng(seed)
    config = TrainConfig(epochs=6)
    rows = {}

    model = build_model("mlp", dataset, seed=seed)
    rows["init"] = conflict_report(model, dataset, rng)

    model = build_model("mlp", dataset, seed=seed)
    Alternate().fit(model, dataset, config, seed=seed)
    rows["alternate"] = conflict_report(model, dataset, rng)

    model = build_model("mlp", dataset, seed=seed)
    DomainNegotiation().fit(model, dataset, config, seed=seed)
    rows["dn"] = conflict_report(model, dataset, rng)
    return rows


def test_extra_conflict_analysis(benchmark, results_dir):
    rows = benchmark.pedantic(run_conflict_analysis, rounds=1, iterations=1)
    text = format_table(
        ["Stage", "Conflict rate", "Mean cosine", "Mean inner product"],
        [
            [stage, f"{r['conflict_rate']:.2f}", r["mean_cosine"],
             f"{r['mean_inner_product']:.3e}"]
            for stage, r in rows.items()
        ],
        title="Extra: inter-domain gradient geometry (Taobao-10)",
    )
    emit(results_dir, "extra_conflict", text)

    # The benchmark datasets must exhibit real domain conflict once the
    # easy shared signal is absorbed: after training, some domain pairs
    # pull in opposing directions.
    assert rows["alternate"]["conflict_rate"] > 0.05
    for r in rows.values():
        assert -1.0 <= r["mean_cosine"] <= 1.0
