"""Domain Negotiation (Algorithm 1).

DN mitigates domain conflict on shared parameters.  One DN epoch:

1. ``Θ~_1 ← Θ`` — start the inner trajectory at the current shared state;
2. visit every domain once *in a freshly shuffled order*, taking a few
   gradient steps on each (Eq. 2);
3. treat ``Θ~_{n+1} − Θ`` as the outer gradient and move
   ``Θ ← Θ + β (Θ~_{n+1} − Θ)`` (Eq. 3).

The Taylor analysis in Section IV-C shows the expected update both descends
every domain's loss and ascends the pairwise gradient inner-products
(InnerGrad) — *because* the order is reshuffled each epoch and β < 1.  With
``β = 1`` DN degenerates to Alternate Training (tested explicitly).
"""

from __future__ import annotations

from ..frameworks.base import LearningFramework, SingleModelBank
from ..nn.state import clone_state, state_interpolate_
from ..utils.seeding import spawn_rng
from .param_space import live_state_view
from .selection import BestTracker, model_split_auc
from .trainer import make_inner_optimizer, train_steps

__all__ = ["alternate_pass", "domain_negotiation_epoch", "negotiate_shared",
           "DomainNegotiation"]


def alternate_pass(model, dataset, optimizer, rng, config, split="train"):
    """Visit every domain once in a freshly shuffled order, taking
    ``config.inner_steps`` updates on each: Algorithm 1's inner trajectory
    (lines 2-5), which is also one epoch of Alternate training."""
    order = list(range(dataset.n_domains))
    rng.shuffle(order)
    for domain_index in order:
        train_steps(model, getattr(dataset.domain(domain_index), split),
                    domain_index, optimizer, rng, config.batch_size,
                    config.inner_steps)


def domain_negotiation_epoch(model, dataset, shared_state, config, rng,
                             split="train", optimizer=None):
    """Run one DN epoch and return the new shared state.

    ``model`` is used as a scratch workspace; its parameters are left at the
    end of the *inner* trajectory (callers needing Θ must reload it).

    ``optimizer`` may be supplied to keep inner-optimizer slot state (Adam
    moments etc.) across epochs, as the PS-Worker deployment does; when
    omitted a fresh optimizer is created (the textbook Algorithm 1 reading).
    """
    model.load_state_dict(shared_state)
    if optimizer is None:
        optimizer = make_inner_optimizer(model, config)

    alternate_pass(model, dataset, optimizer, rng, config, split=split)

    # Eq. 3 without materializing model.state_dict(): interpolate the owned
    # clone toward a zero-copy view of the live parameters (one full-state
    # allocation per DN epoch instead of two).
    current = live_state_view(model)
    return state_interpolate_(clone_state(shared_state), current, config.outer_lr)


def negotiate_shared(model, view, shared, config, rng, optimizer):
    """Algorithm 1's outer loop: ``config.dn_rounds`` DN epochs on θ_S.

    The β-damped outer step advances ~β of an alternate epoch, so 1/β
    rounds keep data-movement parity.  ``optimizer`` is the caller's:
    its slot state carries across rounds (and across calls).  Returns the
    new shared state; ``shared`` itself is not mutated.
    """
    for _ in range(config.dn_rounds):
        shared = domain_negotiation_epoch(
            model, view, shared, config, rng, optimizer=optimizer
        )
    return shared


class DomainNegotiation(LearningFramework):
    """DN as a standalone framework (the "DN" rows of Tables VIII and X).

    Trains a single shared parameter set with Domain Negotiation; no
    domain-specific parameters are kept (that is MAMDR's job).
    """

    name = "DN"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "dn", dataset.name)
        shared = model.state_dict()
        tracker = BestTracker()
        optimizer = make_inner_optimizer(model, config)
        for _ in range(config.epochs):
            shared = negotiate_shared(
                model, dataset, shared, config, rng, optimizer
            )
            model.load_state_dict(shared)
            tracker.update(model_split_auc(model, dataset), shared)
        model.load_state_dict(tracker.best)
        return SingleModelBank(model)
