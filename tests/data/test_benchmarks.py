"""Benchmark presets: calibration against the paper's Tables I-IV."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    amazon6_sim,
    amazon13_sim,
    dataset_by_name,
    overall_stats_row,
    taobao_online_sim,
    taobao_sim,
)
from repro.data.benchmarks import _AMAZON6, _AMAZON13, _TAOBAO30


@pytest.fixture(scope="module")
def small_amazon6():
    return amazon6_sim(scale=0.3)


def test_amazon6_matches_paper_structure(small_amazon6):
    ds = small_amazon6
    assert ds.n_domains == 6
    assert [d.name for d in ds.domains] == [name for name, _, _ in _AMAZON6]
    assert not ds.has_fixed_features  # Amazon uses trainable embeddings
    # CTR ratios from Table II, honored per domain
    for domain, (_, _, ctr) in zip(ds.domains, _AMAZON6):
        assert domain.ctr_ratio == pytest.approx(ctr, abs=0.06)


def test_amazon13_sparse_domains_floor():
    ds = amazon13_sim(scale=0.3)
    assert ds.n_domains == 13
    sizes = [d.num_samples for d in ds.domains]
    # sparse domains hit the floor but never vanish
    assert min(sizes) >= 40
    shares = {name: share for name, share, _ in _AMAZON13}
    biggest = max(ds.domains, key=lambda d: d.num_samples)
    assert shares[biggest.name] == max(shares.values())


def test_taobao_prefix_relationship():
    t10 = taobao_sim(10, scale=0.3)
    t30 = taobao_sim(30, scale=0.3)
    assert [d.name for d in t10.domains] == [d.name for d in t30.domains][:10]
    assert t10.has_fixed_features and t30.has_fixed_features


def test_taobao_ctrs_match_table4():
    ds = taobao_sim(20, scale=0.5)
    for domain, (_, _, ctr) in zip(ds.domains, _TAOBAO30[:20]):
        assert domain.ctr_ratio == pytest.approx(ctr, abs=0.07)


def test_taobao_online_zipf_shape():
    ds = taobao_online_sim(n_domains=25, total_samples=8000, seed=1)
    assert ds.n_domains == 25
    sizes = np.array([d.num_samples for d in ds.domains])
    # heavy-tailed: the largest domain dominates the median by a wide margin
    assert sizes.max() > 5 * np.median(sizes)
    ratios = [d.ctr_ratio for d in ds.domains]
    assert all(0.1 < r < 0.6 for r in ratios)


def test_dataset_by_name_round_trip():
    ds = dataset_by_name("taobao10_sim", scale=0.3)
    assert ds.name == "taobao10_sim"
    with pytest.raises(ValueError):
        dataset_by_name("movielens")


def test_scale_parameter_scales_samples():
    small = amazon6_sim(scale=0.3)
    large = amazon6_sim(scale=1.0)
    assert large.total_interactions("train") > 2 * small.total_interactions("train")


def test_overall_stats_row_fields(small_amazon6):
    row = overall_stats_row(small_amazon6)
    assert row["#Domain"] == 6
    total = row["#Train"] + row["#Val"] + row["#Test"]
    assert row["Sample/Domain"] == total // 6
    assert row["#User"] > 0 and row["#Item"] > 0


# ----------------------------------------------------------------------
# The parameterized taobao_sim front door and its registry names
# ----------------------------------------------------------------------
def test_taobao_sim_registry_names_stay_warning_free():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ds = dataset_by_name("taobao10_sim", scale=0.3)
    assert ds.n_domains == 10


def test_taobao_sim_extends_table_deterministically():
    from repro.data.benchmarks import _taobao_entries

    entries = _taobao_entries(35)
    assert [name for name, _, _ in entries[:30]] == \
        [name for name, _, _ in _TAOBAO30]
    tail = entries[30:]
    assert [name for name, _, _ in tail] == [f"D{i}" for i in range(31, 36)]
    shares = [share for _, share, _ in tail]
    assert shares == sorted(shares, reverse=True)       # decaying tail
    # CTRs cycle the table — pure function of the index, no RNG
    assert [ctr for _, _, ctr in tail] == \
        [_TAOBAO30[i % 30][2] for i in range(30, 35)]
    assert _taobao_entries(35) == entries


def test_taobao_sim_overrides_control_scale():
    ds = taobao_sim(
        40, total_samples=40 * 12, n_users=300, n_items=200,
        min_domain_samples=18, name="tiny40",
    )
    assert ds.name == "tiny40"
    assert ds.n_domains == 40
    assert ds.n_users == 300 and ds.n_items == 200
    assert min(d.num_samples for d in ds.domains) >= 18
    with pytest.raises(ValueError):
        taobao_sim(0)
