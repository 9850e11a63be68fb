"""Shared fixtures: tiny datasets, a fast training config, and
shared-memory hygiene.

A segment that outlives its owner is reported only by the multiprocessing
resource tracker — another process, at interpreter exit — so no test
could see it.  Every test is bracketed by a listing of ``/dev/shm``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import TrainConfig
from repro.data import DomainSpec, SyntheticConfig, generate_dataset

SHM_DIR = Path("/dev/shm")


def shm_segments():
    """Names of the ``multiprocessing.shared_memory`` segments that exist."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("psm_*")}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"shared-memory segments survived the test: {leaked}"


def make_tiny_dataset(feature_mode="trainable", n_domains=3, seed=1,
                      samples=(220, 160, 90)):
    """A small but trainable multi-domain dataset for unit tests."""
    specs = tuple(
        DomainSpec(f"T{i}", samples[i % len(samples)], 0.25 + 0.05 * i)
        for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name=f"tiny_{feature_mode}_{n_domains}",
        domains=specs,
        n_users=150,
        n_items=90,
        latent_dim=8,
        feature_mode=feature_mode,
        feature_dim=10,
        seed=seed,
    ))


@pytest.fixture(scope="session")
def tiny_dataset():
    """Trainable-embedding (Amazon-style) dataset, 3 domains."""
    return make_tiny_dataset("trainable")


@pytest.fixture(scope="session")
def tiny_fixed_dataset():
    """Fixed-feature (Taobao-style) dataset, 3 domains."""
    return make_tiny_dataset("fixed")


@pytest.fixture()
def fast_config():
    """A config small enough for per-test training."""
    return TrainConfig(
        epochs=2,
        batch_size=32,
        inner_steps=3,
        dr_steps=2,
        sample_k=1,
        finetune_steps=4,
    )
