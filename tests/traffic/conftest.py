"""The pool tests' training data."""

from __future__ import annotations

from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.utils.seeding import spawn_rng

def make_serving_dataset(n_domains=5, seed=1):
    """A heavy-tailed synthetic multi-domain dataset to train and serve."""
    base_sizes = (900, 450, 220, 120, 70)
    specs = tuple(
        DomainSpec(
            f"S{i}", base_sizes[i % len(base_sizes)], 0.25 + 0.04 * i
        )
        for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name=f"serving_{n_domains}",
        domains=specs,
        n_users=400,
        n_items=200,
        latent_dim=8,
        feature_mode="trainable",
        feature_dim=10,
        seed=seed,
    ))


def train_rng(seed, dataset):
    """The RNG stream the pool tests train their parameter spaces under
    (they publish from the *space* — θ_S + deltas — so copy-on-write
    materialization has real shared structure to exploit)."""
    return spawn_rng(seed, "pool-parity", "train", dataset.name)
