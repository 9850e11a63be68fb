"""Distribution-similarity clustering of domains (seeded, deterministic).

Builds the :class:`~repro.core.param_space.ClusterPlan` that a
clustered parameter space trains and serves through.  The
grouping follows AdaptDHM's observation that huge domain counts become
tractable when training happens at *cluster* granularity: domains whose
data distributions agree share one cluster-level delta, and only the
data-rich head keeps an explicit per-domain residual.

Per-domain feature vector (everything cheap and already on hand):

* log train size and CTR — the axes Table I / Figure 1 of the paper use
  to show domain imbalance;
* binned item/user impression histograms — the same binning the online
  drift monitor (``repro.online.drift``) uses for its PSI score, so
  "clustered together" and "not drifted apart" measure the same thing;
* mean fixed item-feature vector where the dataset carries one (the
  Taobao embedding statistics);
* optionally a random projection of the per-domain loss gradient at a
  probe model's current parameters — the gradient-conflict probe of
  ``repro.analysis.conflict`` / ``DriftMonitor.conflict`` — so domains
  whose gradients point opposite ways (Figure 3 conflict) land in
  different clusters even when their marginals look alike.

Everything is seeded through :func:`repro.utils.seeding.spawn_rng` and a
fixed iteration budget, so the same ``(dataset, seed)`` produces the same
plan in every process — cluster assignment must not depend on worker
count (the distributed tests pin this).
"""

from __future__ import annotations

import numpy as np

from ..utils.seeding import spawn_rng
from .param_space import ClusterPlan

__all__ = [
    "domain_features",
    "kmeans",
    "plan_clusters",
]

_HIST_BINS = 8


def _binned_histogram(ids, n_ids, n_bins):
    """Normalized impression mass over ``n_bins`` fixed id buckets
    (the drift monitor's binning, Laplace-smoothed)."""
    if len(ids) == 0:
        return np.full(n_bins, 1.0 / n_bins)
    bins = np.minimum(ids * n_bins // max(n_ids, 1), n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins).astype(np.float64) + 0.5
    return counts / counts.sum()


def domain_features(dataset, n_bins=_HIST_BINS, model=None, seed=0,
                    probe_dim=8, probe_batch=128):
    """``(n_domains, n_features)`` distribution descriptors, standardized.

    With ``model`` given, appends a seeded random projection of each
    domain's loss gradient at the model's current parameters (the
    gradient-conflict probe); gradients are normalized to unit length
    first so the probe captures conflict *direction*, not magnitude.
    """
    columns = []
    for domain in dataset:
        table = domain.train
        ctr = float(table.labels.mean()) if len(table) else 0.0
        row = [np.log1p(float(len(table))), ctr]
        row.extend(_binned_histogram(table.items, dataset.n_items, n_bins))
        row.extend(_binned_histogram(table.users, dataset.n_users, n_bins))
        if dataset.has_fixed_features and len(table):
            row.extend(dataset.item_features[table.items].mean(axis=0))
        elif dataset.has_fixed_features:
            row.extend(np.zeros(dataset.item_features.shape[1]))
        columns.append(np.asarray(row, dtype=np.float64))
    features = np.stack(columns)

    if model is not None:
        from ..analysis.conflict import per_domain_gradients

        rng = spawn_rng(seed, "clustering", "probe")
        # Probe in eval mode: dropout draws from the *model's* RNG stream,
        # which would make the plan depend on how often the model instance
        # had been used — assignment must be a pure function of
        # (parameters, dataset, seed) on every worker.
        was_training = model.training
        model.eval()
        try:
            gradients = per_domain_gradients(
                model, dataset, rng, batch_size=probe_batch
            )
        finally:
            model.train(was_training)
        norms = np.linalg.norm(gradients, axis=1, keepdims=True)
        gradients = gradients / np.maximum(norms, 1e-12)
        projector = rng.standard_normal((gradients.shape[1], probe_dim))
        projector /= np.sqrt(probe_dim)
        features = np.concatenate([features, gradients @ projector], axis=1)

    mean = features.mean(axis=0)
    std = features.std(axis=0)
    return (features - mean) / np.maximum(std, 1e-8)


def kmeans(features, n_clusters, seed=0, n_iter=25):
    """Seeded k-means with k-means++ init; returns integer assignments.

    Deterministic: ties in assignment break toward the lowest cluster id
    (``argmin``), empty clusters are re-seeded from the point farthest
    from its centroid, and the iteration budget is fixed.
    """
    n_points = features.shape[0]
    n_clusters = int(min(n_clusters, n_points))
    if n_clusters <= 0:
        raise ValueError("need at least one cluster")
    if n_clusters == n_points:
        return np.arange(n_points)

    rng = spawn_rng(seed, "clustering", "kmeans")
    # k-means++ seeding.
    centroids = [features[int(rng.integers(n_points))]]
    for _ in range(1, n_clusters):
        dist = np.min(
            [((features - c) ** 2).sum(axis=1) for c in centroids], axis=0
        )
        total = dist.sum()
        if total <= 0.0:
            centroids.append(features[int(rng.integers(n_points))])
            continue
        centroids.append(features[int(rng.choice(n_points, p=dist / total))])
    centroids = np.stack(centroids)

    assignments = np.zeros(n_points, dtype=np.int64)
    for _ in range(n_iter):
        sq_dist = (
            (features ** 2).sum(axis=1, keepdims=True)
            - 2.0 * features @ centroids.T
            + (centroids ** 2).sum(axis=1)
        )
        new_assignments = np.argmin(sq_dist, axis=1)
        for cluster in range(n_clusters):
            mask = new_assignments == cluster
            if mask.any():
                centroids[cluster] = features[mask].mean(axis=0)
            else:
                worst = int(np.argmax(np.min(sq_dist, axis=1)))
                centroids[cluster] = features[worst]
                new_assignments[worst] = cluster
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return assignments


def _compact(assignments):
    """Relabel cluster ids to 0..k-1 in first-appearance order."""
    mapping = {}
    compacted = []
    for cluster in assignments:
        cluster = int(cluster)
        if cluster not in mapping:
            mapping[cluster] = len(mapping)
        compacted.append(mapping[cluster])
    return tuple(compacted), len(mapping)


def plan_clusters(dataset, n_clusters, seed=0, head_fraction=0.02,
                  head_min_samples=0, model=None, probe_dim=8,
                  probe_batch=128):
    """Build a :class:`ClusterPlan` for ``dataset``.

    ``head_fraction`` of the domains — the largest by train size, subject
    to ``head_min_samples`` — are promoted to heads and keep an explicit
    per-domain residual; the rest are tail domains served from their
    cluster's shared delta.  Pass ``model`` to include the
    gradient-conflict probe in the similarity features.
    """
    features = domain_features(
        dataset, model=model, seed=seed,
        probe_dim=probe_dim, probe_batch=probe_batch,
    )
    assignments, n_found = _compact(
        kmeans(features, n_clusters, seed=seed)
    )

    sizes = dataset.domain_sizes()
    head_count = int(round(head_fraction * dataset.n_domains))
    order = sorted(
        range(dataset.n_domains), key=lambda d: (-sizes[d], d)
    )
    heads = frozenset(
        d for d in order[:head_count] if sizes[d] >= head_min_samples
    )
    return ClusterPlan(assignments, n_found, heads)
