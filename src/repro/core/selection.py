"""Validation-based model selection.

Every learning framework trains for a fixed number of epochs and keeps the
snapshot with the best mean validation AUC — the standard protocol for CTR
experiments (and the only way fixed-budget comparisons between frameworks
with different convergence speeds are meaningful).
"""

from __future__ import annotations

import math

from ..data.batching import full_batch
from ..metrics.auc import auc_score
from ..nn.compile import eager_step
from ..nn.state import clone_state

__all__ = [
    "BestTracker",
    "PerDomainTracker",
    "model_split_auc",
    "domain_split_auc",
    "space_split_auc",
    "finetune_with_selection",
]


class BestTracker:
    """Keeps the best-scoring snapshot seen so far."""

    def __init__(self):
        self.best_score = -math.inf
        self.best = None

    def update(self, score, snapshot, clone=True):
        """Record ``snapshot`` if ``score`` improves on the best so far.

        ``snapshot`` may be a state dict or any structure of state dicts; it
        is deep-copied through :func:`clone_state` where applicable.  Pass
        ``clone=False`` when the caller already owns a frozen copy (e.g. one
        clone shared by a whole delta-sharing group).
        """
        if score > self.best_score:
            self.best_score = score
            self.best = _deep_clone(snapshot) if clone else snapshot
            return True
        return False

    @property
    def has_best(self):
        return self.best is not None


def _deep_clone(snapshot):
    if isinstance(snapshot, dict):
        first = next(iter(snapshot.values()), None)
        if isinstance(first, dict):
            return {key: _deep_clone(value) for key, value in snapshot.items()}
        return clone_state(snapshot)
    if isinstance(snapshot, tuple):
        return tuple(_deep_clone(part) for part in snapshot)
    raise TypeError(f"cannot snapshot {type(snapshot).__name__}")


def domain_split_auc(model, domain, split="val"):
    """AUC of ``model`` on one domain's split."""
    table = getattr(domain, split)
    batch = full_batch(table, domain.index)
    return auc_score(table.labels, model.predict(batch))


def model_split_auc(model, dataset, split="val"):
    """Mean per-domain AUC of a single model over a dataset split."""
    total = 0.0
    for domain in dataset:
        total += domain_split_auc(model, domain, split)
    return total / dataset.n_domains


def space_split_auc(model, dataset, space, split="val"):
    """Mean per-domain AUC of a shared+specific parameter space.

    Each domain is scored with its combined parameters ``Θ_i = θ_S + θ_i``;
    materialization is gated by the space's delta-sharing groups (one
    ``load_combined`` per group, not per domain).
    """
    total = 0.0
    for group in space.groups():
        space.load_combined(model, group.representative)
        for domain_index in group.domains:
            total += domain_split_auc(model, dataset.domain(domain_index),
                                      split)
    return total / dataset.n_domains


class PerDomainTracker:
    """Per-domain best-snapshot selection for shared+specific frameworks.

    Frameworks that deploy one artifact per domain (DR, MAMDR — like
    Finetune, Separate and MAML) select each domain's best checkpoint on
    that domain's validation split independently.
    """

    def __init__(self, n_domains):
        self.trackers = {d: BestTracker() for d in range(n_domains)}

    def update_from_space(self, model, dataset, space, split="val"):
        """Score every domain's combined state this epoch and keep bests.

        Gated by the space's delta-sharing groups: one materialization per
        group, and at most one defensive clone per group shared by every
        member whose score improved (a 10k-tail cluster that improves does
        not cost 10k state copies).
        """
        for group in space.groups():
            combined = space.combined(group.representative)
            model.load_state_dict(combined)
            group_clone = None
            for domain_index in group.domains:
                domain = dataset.domain(domain_index)
                score = domain_split_auc(model, domain, split)
                tracker = self.trackers[domain_index]
                if score > tracker.best_score:
                    if group_clone is None:
                        group_clone = clone_state(combined)
                    tracker.update(score, group_clone, clone=False)

    def best_states(self):
        """``{domain: best combined state}`` for a StateBank."""
        return {d: t.best for d, t in self.trackers.items() if t.has_best}


def finetune_with_selection(model, domain, optimizer, rng, batch_size,
                            max_steps, eval_every=3, table=None):
    """Finetune on one domain, returning the state with best val AUC.

    Used by Alternate+Finetune, Separate and MAML deployment adaptation so
    per-domain specialization does not silently overfit sparse domains.
    """
    from ..data.batching import iter_minibatches

    train_table = table if table is not None else domain.train
    tracker = BestTracker()
    tracker.update(domain_split_auc(model, domain), model.state_dict())
    step = 0
    for batch in iter_minibatches(train_table, domain.index, batch_size,
                                  rng=rng, max_batches=max_steps):
        eager_step(model, batch, optimizer)
        step += 1
        if step % eval_every == 0 or step == max_steps:
            tracker.update(domain_split_auc(model, domain), model.state_dict())
    return tracker.best
