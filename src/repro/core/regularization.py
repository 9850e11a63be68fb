"""Domain Regularization (Algorithm 2).

DR optimizes the domain-specific delta ``θ_i`` of a *target* domain with the
help of other domains' data.  One DR round for target domain ``i``:

1. sample ``k`` helper domains ``D~``;
2. for each helper ``j``: start from ``θ_i``, take inner steps on ``T_j``
   (Eq. 6), **then** on ``T_i`` (Eq. 7) — the order is fixed, which is what
   makes the Hessian term regularize ``g_j`` toward serving domain ``i``
   (Eq. 22) instead of a symmetric inner-product push;
3. move ``θ_i ← θ_i + γ (θ_i~ − θ_i)`` (Eq. 8).

Forward passes run through ``Θ = θ_S + θ_i`` with θ_S frozen: only the
delta moves, matching Figure 4(b).
"""

from __future__ import annotations

from ..frameworks.base import LearningFramework, StateBank
from ..nn.state import clone_state, state_add, state_interpolate_
from ..utils.seeding import spawn_rng
from .negotiation import alternate_pass
from .param_space import DomainParameterSpace
from .selection import PerDomainTracker
from .trainer import make_inner_optimizer, train_steps

__all__ = ["sample_helper_domains", "domain_regularization_round",
           "regularize_domains", "DomainRegularization"]


def sample_helper_domains(rng, n_domains, target, k):
    """Sample ``k`` helper domains (excluding the target when possible)."""
    others = [d for d in range(n_domains) if d != target]
    if not others or k == 0:
        return []
    if k >= len(others):
        return list(others)
    return list(rng.choice(others, size=k, replace=False))


def domain_regularization_round(model, dataset, space, target, config, rng,
                                split="train", delta=None):
    """Run one DR round for ``target`` and return the new delta θ_target.

    ``target`` indexes a domain of ``dataset`` and of ``space``; ``delta``
    is the round's starting θ_target (default: the space's).
    """
    # Own the accumulator once, then apply every helper's Eq. 8 step in
    # place — k meta-steps, one state allocation.
    delta = clone_state(space.delta(target) if delta is None else delta)
    helpers = sample_helper_domains(rng, dataset.n_domains, target, config.sample_k)
    target_table = getattr(dataset.domain(target), split)

    for helper in helpers:
        # θ_i~ ← θ_i ; forward through θ_S + θ_i~ with a fresh inner
        # optimizer.
        model.load_state_dict(state_add(space.shared, delta))
        optimizer = make_inner_optimizer(model, config)

        helper_table = getattr(dataset.domain(helper), split)
        # Eq. 6: update on helper domain j ...
        train_steps(model, helper_table, helper, optimizer, rng,
                    config.batch_size, config.dr_steps)
        # Eq. 7: ... then on the target domain i as the regularizer.
        train_steps(model, target_table, target, optimizer, rng,
                    config.batch_size, config.dr_steps)

        # Eq. 8: θ_i ← θ_i + γ (θ_i~ − θ_i), where θ_i~ = state − θ_S.
        candidate = space.extract_delta(model)
        state_interpolate_(delta, candidate, config.dr_lr)

    return delta


def regularize_domains(model, dataset, space, config, rng):
    """Algorithm 2's sweep: one DR round per domain, in index order.

    Each domain's new delta is written back to ``space`` before the next
    domain's round starts.
    """
    for domain in range(dataset.n_domains):
        space.apply_delta(domain, domain_regularization_round(
            model, dataset, space, domain, config, rng,
        ))


class DomainRegularization(LearningFramework):
    """DR as a standalone framework (the "DR" / "w/o DN" variants).

    Shared parameters are trained with plain alternate training (no DN);
    each domain's specific delta is then trained with DR every epoch.
    """

    name = "DR"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "dr", dataset.name)
        space = DomainParameterSpace(model, dataset.n_domains)
        tracker = PerDomainTracker(dataset.n_domains)
        optimizer = make_inner_optimizer(model, config)

        for _ in range(config.epochs):
            # Alternate training of the shared state (DN is ablated away).
            model.load_state_dict(space.shared)
            alternate_pass(model, dataset, optimizer, rng, config)
            space.set_shared(model.state_dict())

            regularize_domains(model, dataset, space, config, rng)
            tracker.update_from_space(model, dataset, space)

        return StateBank(model, tracker.best_states(),
                         default_state=space.shared)
