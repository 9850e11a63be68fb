"""Extra: the PS-Worker implementation of Section IV-E.

Compares distributed MAMDR (simulated cluster, async and sync) against
single-process training, and reports the embedding-cache synchronization
statistics that motivate the static/dynamic cache design.
"""

from conftest import emit

from repro.core import MAMDR, TrainConfig
from repro.data import amazon6_sim
from repro.distributed import SimulatedCluster
from repro.metrics import evaluate_bank
from repro.models import build_model
from repro.utils.tables import format_table


def run_distributed(seed=0):
    dataset = amazon6_sim(scale=0.8, seed=seed)
    config = TrainConfig(epochs=6)
    rows = []

    model = build_model("mlp", dataset, seed=seed)
    bank = MAMDR().fit(model, dataset, config, seed=seed)
    single = evaluate_bank(bank, dataset).mean_auc
    rows.append(("single-process MAMDR", single, "-", "-"))

    stats = {}
    for mode in ("async", "sync"):
        cluster = SimulatedCluster(n_workers=4, mode=mode)
        bank = cluster.run(
            lambda wid: build_model("mlp", dataset, seed=seed),
            dataset, config, seed=seed, use_dr=True,
        )
        auc = evaluate_bank(bank, dataset).mean_auc
        stats[mode] = cluster.stats()
        worker_stats = next(iter(stats[mode]["workers"].values()))
        hit_rate = (
            worker_stats["encoder.user_embedding.weight"]["hit_rate"]
            if worker_stats else 0.0
        )
        rows.append((f"cluster ({mode}, 4 workers)", auc,
                     stats[mode]["ps_version"], f"{hit_rate:.2f}"))
    return rows, stats


def test_extra_distributed(benchmark, results_dir):
    rows, stats = benchmark.pedantic(run_distributed, rounds=1, iterations=1)
    text = format_table(
        ["Setup", "AUC", "PS version", "user-emb cache hit rate"],
        [list(r) for r in rows],
        title="Extra: distributed MAMDR vs single-process (Amazon-6)",
    )
    emit(results_dir, "extra_distributed", text)

    aucs = [r[1] for r in rows]
    # Distributed training must stay in the same quality band as
    # single-process training (the paper deploys it at Taobao scale).
    assert all(a > 0.6 for a in aucs)
    assert max(aucs) - min(aucs) < 0.08
