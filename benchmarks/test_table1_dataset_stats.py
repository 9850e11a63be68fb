"""Table I: overall statistics of the MDR benchmark datasets."""

from conftest import emit

from repro.data import (
    amazon6_sim,
    amazon13_sim,
    overall_stats_table,
    taobao_sim,
    taobao_online_sim,
)


def build_all():
    return [
        amazon6_sim(),
        amazon13_sim(),
        taobao_sim(10),
        taobao_sim(20),
        taobao_sim(30),
        taobao_online_sim(n_domains=40, total_samples=20_000),
    ]


def test_table1_dataset_stats(benchmark, results_dir):
    datasets = benchmark.pedantic(build_all, rounds=1, iterations=1)
    text = overall_stats_table(datasets)
    emit(results_dir, "table1", text)

    names = [d.name for d in datasets]
    assert names == [
        "amazon6_sim", "amazon13_sim", "taobao10_sim", "taobao20_sim",
        "taobao30_sim", "taobao_online_sim",
    ]
    # The paper's structural facts: domain counts and Amazon > Taobao scale.
    assert [d.n_domains for d in datasets] == [6, 13, 10, 20, 30, 40]
    assert datasets[0].total_interactions("train") > datasets[2].total_interactions("train")
