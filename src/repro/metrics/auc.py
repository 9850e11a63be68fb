"""Area under the ROC curve — the paper's evaluation metric for CTR.

Computed via the rank-statistic (Mann-Whitney U) formulation with midrank
tie handling, verified against a direct O(n^2) definition and scipy in the
test suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["auc_score", "mean_domain_auc"]


def auc_score(labels, scores):
    """AUC of ``scores`` against binary ``labels``.

    Raises ``ValueError`` when only one class is present or a score is NaN
    (AUC undefined; NaNs would otherwise rank as distinct values).  Ties
    receive midranks, matching the standard definition; ±inf ranks as
    the extreme it is.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    if np.isnan(scores).any():
        raise ValueError("AUC is undefined for NaN scores")
    positives = labels > 0.5
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both positive and negative samples")
    ranks = _midranks(scores)
    pos_rank_sum = ranks[positives].sum()
    u_statistic = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))


def _midranks(values):
    """1-based ranks with ties assigned the mean of their rank range."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    # A tie run starts wherever a sorted value differs from the one before.
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    )
    ends = np.concatenate((starts[1:], [len(values)])) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def mean_domain_auc(per_domain_auc):
    """Average AUC across domains — the headline metric of Tables V-X."""
    values = list(per_domain_auc.values()) if isinstance(per_domain_auc, dict) else list(per_domain_auc)
    if not values:
        raise ValueError("no per-domain AUCs provided")
    return float(np.mean(values))
