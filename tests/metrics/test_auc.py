"""AUC correctness against a direct definition and scipy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.metrics import auc_score, mean_domain_auc
from repro.metrics.auc import _midranks


def reference_auc(labels, scores):
    """Direct O(n^2) definition with 0.5 credit for ties."""
    pos = scores[labels > 0.5]
    neg = scores[labels <= 0.5]
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return wins / (len(pos) * len(neg))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 60),
    seed=st.integers(0, 10_000),
    ties=st.booleans(),
)
def test_auc_matches_reference(n, seed, ties):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n)
    labels[: max(1, n // 3)] = 1.0
    rng.shuffle(labels)
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores)  # force plenty of ties
    assert auc_score(labels, scores) == pytest.approx(
        reference_auc(labels, scores)
    )


def test_auc_matches_mannwhitney():
    rng = np.random.default_rng(1)
    labels = (rng.random(300) > 0.6).astype(float)
    scores = rng.normal(size=300) + labels
    u_stat, _ = stats.mannwhitneyu(scores[labels > 0.5], scores[labels <= 0.5])
    expected = u_stat / ((labels > 0.5).sum() * (labels <= 0.5).sum())
    assert auc_score(labels, scores) == pytest.approx(expected)


def test_auc_extremes():
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    assert auc_score(labels, np.array([4.0, 3.0, 2.0, 1.0])) == 1.0
    assert auc_score(labels, np.array([1.0, 2.0, 3.0, 4.0])) == 0.0
    assert auc_score(labels, np.zeros(4)) == 0.5


def test_auc_invariant_to_monotone_transform():
    rng = np.random.default_rng(2)
    labels = (rng.random(100) > 0.5).astype(float)
    scores = rng.normal(size=100)
    base = auc_score(labels, scores)
    assert auc_score(labels, 3 * scores + 7) == pytest.approx(base)
    assert auc_score(labels, np.tanh(scores)) == pytest.approx(base)


def test_auc_error_cases():
    with pytest.raises(ValueError):
        auc_score(np.ones(5), np.zeros(5))
    with pytest.raises(ValueError):
        auc_score(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        auc_score(np.ones(3), np.zeros(4))


def test_auc_rejects_nan_scores():
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="NaN"):
        auc_score(labels, np.array([0.9, np.nan, 0.2, 0.1]))


def test_mean_domain_auc_accepts_dict_and_list():
    assert mean_domain_auc({"a": 0.6, "b": 0.8}) == pytest.approx(0.7)
    assert mean_domain_auc([0.6, 0.8]) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        mean_domain_auc({})


# ----------------------------------------------------------------------
# The vectorized rank kernel against the loop it replaced
# ----------------------------------------------------------------------
def loop_midranks(values):
    """The per-element midrank loop ``_midranks`` used to be (the oracle)."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_auc(labels, scores):
    positives = labels > 0.5
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    pos_rank_sum = loop_midranks(scores)[positives].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


#: few distinct values (heavy ties), both zeros, both infinities
TIED_SCORES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, np.inf, -np.inf]
)
SCORES = st.one_of(
    st.lists(TIED_SCORES, min_size=1, max_size=200),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=200),
)


@settings(max_examples=200, deadline=None)
@given(scores=SCORES, seed=st.integers(0, 10_000))
def test_midranks_and_auc_bit_equal_to_loop_oracle(scores, seed):
    scores = np.array(scores, dtype=np.float64)
    assert np.array_equal(_midranks(scores), loop_midranks(scores))
    if len(scores) >= 2:
        labels = np.zeros(len(scores))
        labels[: len(scores) // 2] = 1.0
        np.random.default_rng(seed).shuffle(labels)
        assert auc_score(labels, scores) == loop_auc(labels, scores)


@pytest.mark.parametrize("scores", [
    np.zeros(1),
    np.full(257, 3.0),                                  # all equal
    np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
    np.array([np.inf, -np.inf, np.inf, 0.0, -np.inf]),
    np.random.default_rng(3).normal(size=10_000),
    np.random.default_rng(4).integers(0, 7, size=10_000).astype(np.float64),
], ids=["one", "all-equal", "signed-zero", "inf", "10k", "10k-ties"])
def test_midranks_bit_equal_on_edge_shapes(scores):
    assert np.array_equal(_midranks(scores), loop_midranks(scores))
    if len(scores) >= 2:
        labels = (np.arange(len(scores)) % 3 == 0).astype(np.float64)
        assert auc_score(labels, scores) == loop_auc(labels, scores)
