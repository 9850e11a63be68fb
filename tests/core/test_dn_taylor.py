"""DN's outer step matches the paper's second-order Taylor expansion.

Section IV-C: visiting domains in order σ with one full-batch SGD step of
size α each moves the shared state by

    Δ_σ = −α Σ g_i + α² Σ_{σ(i)<σ(j)} H_j g_i + O(α³),

so the average over all orders is ``−α Σ g_i + (α²/2) Σ_{i≠j} H_j g_i``:
the gradient of the InnerGrad term ``Σ_{i<j} ⟨g_i, g_j⟩`` scaled by α²/2.
The residual

    r(α) = ‖E_σ[Δ]/α² + Σ g/α − ½ Σ_{i≠j} H_j g_i‖ / ‖½ Σ_{i≠j} H_j g_i‖

is therefore O(α): it halves with α.  A single order keeps the
order-dependent commutator, which only reshuffling averages away, so its
residual does not vanish.

The setup is deterministic, with no seed sweep: a tanh ``MLPBlock``
without dropout (ReLU kinks break the expansion at these step sizes), SGD
inner steps on batches larger than any domain, all 6 orders of 3 domains
fixed by an rng stub, and Hessian-vector products by central differences.
It runs the real ``domain_negotiation_epoch`` on a fixed-feature and on a
trainable-embedding encoder.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import (
    TrainConfig,
    compute_loss_gradient,
    domain_negotiation_epoch,
)
from repro.data import amazon6_sim, taobao_sim
from repro.data.batching import full_batch
from repro.data.schema import MultiDomainDataset
from repro.models import build_encoder
from repro.models.base import CTRModel
from repro.nn import MLPBlock

ALPHAS = (0.1, 0.05, 0.025)
#: Central-difference step of the Hessian-vector products (along a unit
#: direction).
EPS = 1e-5
#: The averaged residual at α = 0.05 recorded in ROADMAP.md when this
#: check was designed.  This build measures 0.056 (fixed) and 0.052
#: (trainable); the bound allows 25 % above the recorded value.
TABLE_AT_005 = {"fixed": 0.067, "trainable": 0.049}
BOUND_MARGIN = 1.25


class TanhMLP(CTRModel):
    """The concatenated fields through a (64, 32) tanh stack to a logit."""

    def __init__(self, encoder, rng):
        super().__init__(encoder)
        self.body = MLPBlock(encoder.flat_dim, [64, 32, 1], rng,
                             activation="tanh", out_activation="linear")

    def forward(self, batch):
        return self.body(self.encoder.concat(batch)).reshape(len(batch))


class FixedOrder:
    """An rng stub: visits domains in ``order`` and keeps every batch in
    table order."""

    def __init__(self, order):
        self.order = list(order)

    def shuffle(self, sequence):
        sequence[:] = self.order

    def permutation(self, n):
        return np.arange(n)


def three_domains(name):
    if name == "fixed":
        return taobao_sim(3, scale=0.3)
    full = amazon6_sim(scale=0.2)
    return MultiDomainDataset(
        f"{full.name}[:3]", full.domains[:3],
        n_users=full.n_users, n_items=full.n_items,
    )


def flat(state, names):
    return np.concatenate([state[name].ravel() for name in names])


def shifted(theta, direction):
    """``θ + direction`` as a state, ``direction`` flat."""
    out, start = {}, 0
    for name, value in theta.items():
        out[name] = value + direction[start:start + value.size].reshape(
            value.shape)
        start += value.size
    return out


class Expansion:
    """Everything the assertions read for one encoder."""

    def __init__(self, name):
        self.key = name
        dataset = three_domains(name)
        rng = np.random.default_rng(0)
        self.model = TanhMLP(build_encoder(dataset, field_dim=16, rng=rng),
                             rng)
        self.dataset = dataset
        self.theta = self.model.state_dict()
        self.names = list(self.theta)
        self.batch_size = max(len(domain.train) for domain in dataset) + 1

        grads = self.gradients(self.theta)
        self.sum_grad = sum(grads)
        self.half_inner_grad = 0.5 * sum(
            self.hvp(j, grads[i])
            for i in range(3) for j in range(3) if i != j
        )
        self.table = {alpha: self.residuals(alpha) for alpha in ALPHAS}

    def gradients(self, state):
        out = []
        for domain in self.dataset:
            self.model.load_state_dict(state)
            _, grad = compute_loss_gradient(
                self.model, full_batch(domain.train, domain.index))
            out.append(flat(grad, self.names))
        return out

    def hvp(self, j, vector):
        norm = np.linalg.norm(vector)
        step = EPS * vector / norm
        plus = self.gradients(shifted(self.theta, step))[j]
        minus = self.gradients(shifted(self.theta, -step))[j]
        return (plus - minus) / (2 * EPS) * norm

    def config(self, alpha, beta=1.0):
        return TrainConfig(inner_optimizer="sgd", inner_lr=alpha,
                           inner_steps=1, outer_lr=beta,
                           batch_size=self.batch_size)

    def step(self, order, alpha, beta=1.0):
        """``(new θ, end of the inner trajectory)`` of one DN epoch."""
        new = domain_negotiation_epoch(
            self.model, self.dataset, self.theta, self.config(alpha, beta),
            FixedOrder(order),
        )
        return new, self.model.state_dict()

    def residual(self, delta, alpha):
        error = delta / alpha ** 2 + self.sum_grad / alpha \
            - self.half_inner_grad
        return np.linalg.norm(error) / np.linalg.norm(self.half_inner_grad)

    def residuals(self, alpha):
        """``(averaged residual, [residual of each order])``."""
        theta = flat(self.theta, self.names)
        deltas = [
            flat(self.step(order, alpha)[0], self.names) - theta
            for order in itertools.permutations(range(3))
        ]
        return (self.residual(np.mean(deltas, axis=0), alpha),
                [self.residual(delta, alpha) for delta in deltas])


@pytest.fixture(scope="module", params=["fixed", "trainable"])
def expansion(request):
    return Expansion(request.param)


def test_averaged_residual_halves_with_alpha(expansion):
    averaged = [expansion.table[alpha][0] for alpha in ALPHAS]
    for larger, smaller in zip(averaged, averaged[1:]):
        assert 0.4 <= smaller / larger <= 0.6, averaged
    bound = TABLE_AT_005[expansion.key] * BOUND_MARGIN
    assert expansion.table[0.05][0] < bound, averaged


def test_single_order_residual_does_not_vanish(expansion):
    averaged, singles = expansion.table[ALPHAS[-1]]
    # Measured at α = 0.025: the smallest single-order residual is 0.150
    # (fixed) and 0.043 (trainable), against averaged ones of 0.029 and
    # 0.026.
    assert min(singles) > max(0.03, averaged)


def test_outer_lr_scales_the_step_by_exactly_beta(expansion):
    order, alpha, beta = (2, 0, 1), 0.05, 0.25
    _, end_full = expansion.step(order, alpha)
    new, end = expansion.step(order, alpha, beta)
    for name, start in expansion.theta.items():
        # the inner trajectory does not depend on β ...
        np.testing.assert_array_equal(end[name], end_full[name])
        # ... and Eq. 3 moves θ by β of it
        np.testing.assert_array_equal(
            new[name], start + beta * (end[name] - start))
