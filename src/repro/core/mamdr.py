"""MAMDR (Algorithm 3): Domain Negotiation + Domain Regularization.

Per epoch, MAMDR first updates the shared parameters θ_S with DN
(mitigating domain conflict), then updates every domain's specific delta
θ_i with DR (regularizing sparse domains with other domains' data).  The
deployed predictor for domain ``i`` uses ``Θ_i = θ_S + θ_i`` (Eq. 4).

Total complexity per epoch is ``O((k + 1) n)`` domain visits, matching the
paper, versus ``O(n^2)`` for CDR-style pairwise transfer or PCGrad.
"""

from __future__ import annotations

from ..frameworks.base import LearningFramework, StateBank
from ..utils.seeding import spawn_rng
from .negotiation import domain_negotiation_epoch, negotiate_shared
from .param_space import DomainParameterSpace
from .regularization import regularize_domains
from .selection import BestTracker, PerDomainTracker, model_split_auc
from .trainer import make_inner_optimizer

__all__ = ["MAMDR", "mamdr_epoch", "train_space"]


def mamdr_epoch(model, dataset, space, config, rng, optimizer):
    """One epoch of Algorithm 3 on ``space``: DN on θ_S, then DR on every
    domain's delta.  ``optimizer`` is DN's inner optimizer (DR builds its
    own per helper).
    """
    space.set_shared(
        negotiate_shared(model, dataset, space.shared, config, rng, optimizer)
    )
    regularize_domains(model, dataset, space, config, rng)


def train_space(model, dataset, config, rng):
    """``config.epochs`` of :func:`mamdr_epoch` from ``model``'s current
    state; returns the live :class:`DomainParameterSpace`.

    ``MAMDR.fit`` returns the best-checkpoint bank; callers that publish
    or keep training need the space itself (θ_S + deltas).  One DN inner
    optimizer lives for the whole run.
    """
    space = DomainParameterSpace(model, dataset.n_domains)
    optimizer = make_inner_optimizer(model, config)
    for _ in range(config.epochs):
        mamdr_epoch(model, dataset, space, config, rng, optimizer)
    return space


class MAMDR(LearningFramework):
    """The paper's unified framework.

    ``use_dn`` / ``use_dr`` ablate the two components (Table VI):

    * ``use_dn=False`` replaces DN with plain alternate training of θ_S;
    * ``use_dr=False`` drops the specific deltas entirely (serving uses
      θ_S for every domain).

    Training keeps one delta per domain in a
    :class:`~repro.core.param_space.DomainParameterSpace`.
    """

    def __init__(self, use_dn=True, use_dr=True):
        self.use_dn = use_dn
        self.use_dr = use_dr

    @property
    def name(self):
        if self.use_dn and self.use_dr:
            return "MAMDR (DN+DR)"
        if self.use_dn:
            return "DN"
        if self.use_dr:
            return "DR"
        return "Alternate"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "mamdr", dataset.name, self.use_dn, self.use_dr)
        space = DomainParameterSpace(model, dataset.n_domains)
        # With DR the deployment artifact is per-domain (Θ_i = θ_S + θ_i), so
        # each domain selects its best checkpoint independently, like the
        # other per-domain frameworks.  Without DR there is one shared state.
        per_domain_tracker = PerDomainTracker(dataset.n_domains)
        shared_tracker = BestTracker()
        optimizer = make_inner_optimizer(model, config)

        for _ in range(config.epochs):
            if self.use_dn and self.use_dr:
                mamdr_epoch(model, dataset, space, config, rng, optimizer)
            else:
                # The ablations compose the two sweeps themselves.
                self._ablated_epoch(model, dataset, space, config, rng,
                                    optimizer)
            if self.use_dr:
                per_domain_tracker.update_from_space(model, dataset, space)
            else:
                model.load_state_dict(space.shared)
                shared_tracker.update(model_split_auc(model, dataset),
                                      space.shared)

        if self.use_dr:
            return StateBank(model, per_domain_tracker.best_states(),
                             default_state=space.shared)
        best_shared = shared_tracker.best
        model.load_state_dict(best_shared)
        return StateBank(
            model,
            {d: best_shared for d in range(dataset.n_domains)},
            default_state=best_shared,
        )

    def _ablated_epoch(self, model, dataset, space, config, rng, optimizer):
        if self.use_dn:
            shared = negotiate_shared(
                model, dataset, space.shared, config, rng, optimizer
            )
        else:
            # Plain alternate training: β = 1, one pass, no outer loop.
            shared = domain_negotiation_epoch(
                model, dataset, space.shared, config.updated(outer_lr=1.0),
                rng, optimizer=optimizer,
            )
        space.set_shared(shared)
        if self.use_dr:
            regularize_domains(model, dataset, space, config, rng)
