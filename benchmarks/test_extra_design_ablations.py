"""Extra: ablations of this reproduction's own design choices.

DESIGN.md calls out two knobs the paper leaves implicit and this
implementation makes explicit; each gets an ablation here:

* ``dn_rounds`` — DN epochs per framework epoch (compensates the β-damped
  outer step; 1 = the literal Algorithm 1 reading);
* ``inner_steps`` — bounded vs full per-domain passes in the inner loop.
"""

import numpy as np
from conftest import emit

from repro.core import MAMDR, TrainConfig
from repro.data import taobao_sim
from repro.metrics import evaluate_bank
from repro.models import build_model
from repro.utils.tables import format_table

VARIANTS = (
    ("dn_rounds=1 (literal Alg. 1)", {"dn_rounds": 1}),
    ("dn_rounds=2 (default)", {"dn_rounds": 2}),
    ("inner_steps=4 (capped pass)", {"inner_steps": 4}),
    ("inner_steps=None (full pass)", {"inner_steps": None}),
)


def run_ablations(seeds=(0, 1)):
    rows = []
    for label, overrides in VARIANTS:
        aucs = []
        for seed in seeds:
            dataset = taobao_sim(10, scale=0.8, seed=seed)
            config = TrainConfig().updated(**overrides)
            model = build_model("mlp", dataset, seed=seed)
            bank = MAMDR().fit(model, dataset, config, seed=seed)
            aucs.append(evaluate_bank(bank, dataset).mean_auc)
        rows.append([label, float(np.mean(aucs))])
    return rows


def test_extra_design_ablations(benchmark, results_dir):
    rows = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    text = format_table(
        ["Variant", "AUC"], rows,
        title="Extra: design-choice ablations for MAMDR (Taobao-10)",
    )
    emit(results_dir, "extra_design_ablations", text)

    aucs = {label: auc for label, auc in rows}
    assert all(0.5 < auc <= 1.0 for auc in aucs.values())
