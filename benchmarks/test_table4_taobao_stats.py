"""Table IV: per-domain statistics of Taobao-10/20/30."""

from conftest import emit

from repro.data import (
    per_domain_stats_table,
    taobao_sim,
)


def test_table4_taobao_stats(benchmark, results_dir):
    datasets = benchmark.pedantic(
        lambda: (taobao_sim(10), taobao_sim(20), taobao_sim(30)),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        per_domain_stats_table(
            d, title=f"Table IV analogue: {d.name} per-domain statistics"
        )
        for d in datasets
    )
    emit(results_dir, "table4", text)

    t10, t20, t30 = datasets
    assert (t10.n_domains, t20.n_domains, t30.n_domains) == (10, 20, 30)
    # Taobao-10/20 are prefixes of Taobao-30's domain list (paper Table IV).
    names30 = [d.name for d in t30.domains]
    assert [d.name for d in t10.domains] == names30[:10]
    assert [d.name for d in t20.domains] == names30[:20]
    # D14 is the dominant domain (17.29% of samples in the paper).
    sizes = {d.name: d.num_samples for d in t30.domains}
    assert max(sizes, key=sizes.get) == "D14"
