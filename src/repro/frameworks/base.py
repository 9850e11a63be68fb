"""Learning-framework abstractions.

A *learning framework* (in the paper's sense — Table X) is a model-agnostic
training procedure: it receives an arbitrary CTR model plus a multi-domain
dataset and produces a deployable predictor for every domain.  Deployment
artifacts are represented as a :class:`DomainModelBank`:

* frameworks that train one set of weights (Alternate, PCGrad, Reptile, ...)
  return a :class:`SingleModelBank`;
* frameworks that end with per-domain parameters (finetuning, MAMDR's
  ``Θ_i = θ_S + θ_i``) return a :class:`StateBank` that swaps the right
  state in before scoring.
"""

from __future__ import annotations

from ..nn.state import clone_state

__all__ = [
    "DomainModelBank",
    "SingleModelBank",
    "StateBank",
    "LearningFramework",
]


class DomainModelBank:
    """A deployable set of per-domain predictors."""

    def scores(self, batch):
        """Click scores for a homogeneous-domain batch (numpy array)."""
        raise NotImplementedError


class SingleModelBank(DomainModelBank):
    """All domains served by the same weights."""

    def __init__(self, model):
        self.model = model

    def scores(self, batch):
        return self.model.predict(batch)


class StateBank(DomainModelBank):
    """One parameter state per domain, applied to a shared model skeleton.

    This mirrors the paper's serving architecture: a single model structure
    with the global feature storage, plus per-domain parameters swapped in
    (Figure 2).  States for unseen domains fall back to ``default_state``.
    """

    def __init__(self, model, domain_states, default_state=None):
        self.model = model
        # Domains sharing a state object (the no-DR "same state
        # everywhere" bank) share one clone — the bank costs one copy per
        # *distinct* state, not per domain.
        memo = {}
        self.domain_states = {}
        for domain, state in domain_states.items():
            cloned = memo.get(id(state))
            if cloned is None:
                cloned = clone_state(state)
                memo[id(state)] = cloned
            self.domain_states[domain] = cloned
        self.default_state = (
            clone_state(default_state) if default_state is not None else None
        )

    def state_for(self, domain):
        state = self.domain_states.get(domain, self.default_state)
        if state is None:
            raise KeyError(f"no parameters stored for domain {domain}")
        return state

    def scores(self, batch):
        self.model.load_state_dict(self.state_for(batch.domain))
        return self.model.predict(batch)


class LearningFramework:
    """Base class: ``fit`` trains a model on a dataset and returns a bank."""

    #: human-readable name used in benchmark tables
    name = "framework"

    def fit(self, model, dataset, config, seed=0):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"
