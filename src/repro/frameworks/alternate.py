"""Traditional learning frameworks: Alternate, Alternate+Finetune, Separate.

* **Alternate** trains one model on all domains one-by-one (Figure 5(b));
  the paper's default baseline training scheme.
* **Alternate + Finetune** then finetunes a copy per domain, the classical
  way of obtaining domain-specific models.
* **Separate** trains an independent model per domain from scratch
  (Figure 1(b); "RAW+Separate" in Table VIII) — it overfits sparse domains.

All frameworks keep the snapshot with the best mean validation AUC
(per-domain validation AUC for per-domain states).
"""

from __future__ import annotations

from ..core.selection import (
    BestTracker,
    domain_split_auc,
    finetune_with_selection,
    model_split_auc,
)
from ..core.negotiation import alternate_pass
from ..core.trainer import make_inner_optimizer, train_steps
from ..nn.state import clone_state
from ..utils.seeding import spawn_rng
from .base import LearningFramework, SingleModelBank, StateBank

__all__ = ["Alternate", "AlternateFinetune", "Separate"]


class Alternate(LearningFramework):
    """One model, domains visited one-by-one every epoch."""

    name = "Alternate"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "alternate", dataset.name)
        optimizer = make_inner_optimizer(model, config)
        tracker = BestTracker()
        for _ in range(config.epochs):
            alternate_pass(model, dataset, optimizer, rng, config)
            tracker.update(model_split_auc(model, dataset), model.state_dict())
        model.load_state_dict(tracker.best)
        return SingleModelBank(model)


class AlternateFinetune(LearningFramework):
    """Alternate training followed by per-domain finetuning."""

    name = "Alternate+Finetune"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "alt-finetune", dataset.name)
        Alternate().fit(model, dataset, config, seed=seed)
        base_state = model.state_dict()

        domain_states = {}
        for domain in dataset:
            model.load_state_dict(base_state)
            optimizer = make_inner_optimizer(model, config)
            domain_states[domain.index] = finetune_with_selection(
                model, domain, optimizer, rng,
                config.batch_size, config.finetune_steps,
            )

        return StateBank(model, domain_states, default_state=base_state)


class Separate(LearningFramework):
    """An independent model per domain (no sharing at all)."""

    name = "Separate"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "separate", dataset.name)
        init_state = clone_state(model.state_dict())

        domain_states = {}
        for domain in dataset:
            model.load_state_dict(init_state)
            optimizer = make_inner_optimizer(model, config)
            tracker = BestTracker()
            tracker.update(domain_split_auc(model, domain), model.state_dict())
            for _ in range(config.epochs):
                train_steps(model, domain.train, domain.index, optimizer, rng,
                            config.batch_size, config.inner_steps)
                tracker.update(domain_split_auc(model, domain), model.state_dict())
            domain_states[domain.index] = tracker.best

        return StateBank(model, domain_states, default_state=init_state)
