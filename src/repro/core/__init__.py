"""``repro.core`` — the paper's contribution.

Domain Negotiation (Algorithm 1), Domain Regularization (Algorithm 2) and
the unified MAMDR framework (Algorithm 3), plus the shared/specific
parameter plane (Eq. 4) and the training configuration.

The parameter plane is the documented front door for anything touching
per-domain parameters: one :class:`DomainParameterSpace` holding θ_S and
one delta per domain.
"""

from .config import TrainConfig
from .mamdr import MAMDR, mamdr_epoch, train_space
from .negotiation import (
    DomainNegotiation,
    alternate_pass,
    domain_negotiation_epoch,
    negotiate_shared,
)
from .param_space import DomainParameterSpace, live_state_view
from .selection import (
    BestTracker,
    PerDomainTracker,
    domain_split_auc,
    finetune_with_selection,
    model_split_auc,
    space_split_auc,
)
from .regularization import (
    DomainRegularization,
    domain_regularization_round,
    regularize_domains,
    sample_helper_domains,
)
from .trainer import compute_loss_gradient, make_inner_optimizer, train_steps

__all__ = [
    # training frameworks + loops
    "TrainConfig",
    "MAMDR",
    "mamdr_epoch",
    "train_space",
    "DomainNegotiation",
    "domain_negotiation_epoch",
    "negotiate_shared",
    "DomainRegularization",
    "domain_regularization_round",
    "regularize_domains",
    "sample_helper_domains",
    # the parameter plane (Eq. 4)
    "DomainParameterSpace",
    "live_state_view",
    # model selection + evaluation
    "BestTracker",
    "PerDomainTracker",
    "domain_split_auc",
    "model_split_auc",
    "space_split_auc",
    "finetune_with_selection",
    # inner-loop training
    "train_steps",
    "alternate_pass",
    "make_inner_optimizer",
    "compute_loss_gradient",
]
