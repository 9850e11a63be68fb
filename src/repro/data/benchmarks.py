"""MDR benchmark dataset presets, calibrated to the paper's Tables I-IV.

Each preset reproduces the *structure* of the corresponding paper benchmark
— the number of domains, each domain's share of the total sample count, and
each domain's CTR ratio are taken directly from Tables II, III and IV — at a
laptop-friendly scale (the paper's Amazon-6 has 16.9M interactions; ours
defaults to ~12k, tunable via ``scale``).

Amazon-style datasets use trainable id embeddings (the paper randomly
initializes Amazon features); Taobao-style datasets use frozen dense
features (standing in for the paper's frozen GraphSage features).
"""

from __future__ import annotations

import numpy as np

from ..utils.seeding import spawn_rng
from .synthetic import DomainSpec, SyntheticConfig, generate_dataset

__all__ = [
    "amazon6_sim",
    "amazon13_sim",
    "taobao_sim",
    "taobao_online_sim",
    "dataset_by_name",
    "BENCHMARK_BUILDERS",
]

# (name, share-of-total, CTR ratio) from Table II.
_AMAZON6 = [
    ("Musical Instruments", 0.0711, 0.22),
    ("Office Products", 0.2317, 0.23),
    ("Patio Lawn and Garden", 0.1787, 0.32),
    ("Prime Pantry", 0.0410, 0.23),
    ("Toys and Games", 0.3180, 0.47),
    ("Video Games", 0.1594, 0.21),
]

# From Table III; the seven newly added domains are the sparse ones.
_AMAZON13 = [
    ("Arts Crafts and Sewing", 0.1186, 0.22),
    ("Digital Music", 0.0378, 0.23),
    ("Gift Cards", 0.0006, 0.32),
    ("Industrial and Scientific", 0.0186, 0.23),
    ("Luxury Beauty", 0.0043, 0.47),
    ("Magazine Subscriptions", 0.0006, 0.21),
    ("Musical Instruments", 0.0399, 0.36),
    ("Office Products", 0.1558, 0.30),
    ("Patio Lawn and Garden", 0.1136, 0.46),
    ("Prime Pantry", 0.0322, 0.25),
    ("Software", 0.0005, 0.30),
    ("Toys and Games", 0.3697, 0.30),
    ("Video Games", 0.1078, 0.27),
]

# From Table IV (D1..D30); Taobao-10/20 take the first 10/20 domains.
_TAOBAO30 = [
    ("D1", 0.0182, 0.22), ("D2", 0.0096, 0.23), ("D3", 0.0277, 0.32),
    ("D4", 0.0860, 0.23), ("D5", 0.0159, 0.47), ("D6", 0.0099, 0.21),
    ("D7", 0.0058, 0.36), ("D8", 0.0331, 0.30), ("D9", 0.0077, 0.46),
    ("D10", 0.0246, 0.25), ("D11", 0.0403, 0.30), ("D12", 0.0089, 0.30),
    ("D13", 0.0122, 0.27), ("D14", 0.1729, 0.20), ("D15", 0.0214, 0.33),
    ("D16", 0.0075, 0.23), ("D17", 0.0194, 0.38), ("D18", 0.0742, 0.22),
    ("D19", 0.0167, 0.29), ("D20", 0.0040, 0.33), ("D21", 0.0065, 0.47),
    ("D22", 0.0403, 0.23), ("D23", 0.0573, 0.24), ("D24", 0.0101, 0.44),
    ("D25", 0.0938, 0.21), ("D26", 0.0073, 0.47), ("D27", 0.0343, 0.37),
    ("D28", 0.0536, 0.28), ("D29", 0.0335, 0.45), ("D30", 0.0472, 0.43),
]

_MIN_DOMAIN_SAMPLES = 40


def _specs_from_shares(entries, total_samples, min_samples=_MIN_DOMAIN_SAMPLES):
    """Turn (name, share, ctr) rows into DomainSpecs with a sparsity floor."""
    total_share = sum(share for _, share, _ in entries)
    specs = []
    for name, share, ctr in entries:
        n = int(round(total_samples * share / total_share))
        specs.append(DomainSpec(name, max(n, min_samples), ctr))
    return tuple(specs)


def amazon6_sim(scale=1.0, seed=0):
    """Amazon-6 analogue: 6 data-rich domains, trainable embeddings."""
    total = int(12_000 * scale)
    return generate_dataset(SyntheticConfig(
        name="amazon6_sim",
        domains=_specs_from_shares(_AMAZON6, total),
        n_users=int(900 * scale) + 100,
        n_items=int(500 * scale) + 80,
        feature_mode="trainable",
        conflict=0.6,
        seed=seed,
    ))


def amazon13_sim(scale=1.0, seed=0):
    """Amazon-13 analogue: Amazon-6's domains plus 7 sparse ones."""
    total = int(14_000 * scale)
    return generate_dataset(SyntheticConfig(
        name="amazon13_sim",
        domains=_specs_from_shares(_AMAZON13, total),
        n_users=int(1000 * scale) + 120,
        n_items=int(550 * scale) + 90,
        feature_mode="trainable",
        conflict=0.6,
        seed=seed,
    ))


def _taobao_entries(n_domains):
    """(name, share, ctr) rows for ``n_domains`` Cloud-Theme-like domains.

    The first 30 come straight from Table IV; beyond that the table is
    extended with a deterministic heavy tail — each extra domain ``D{i}``
    gets a polynomially decaying share and cycles the table's CTR ratios
    — so arbitrarily large domain counts keep the preset's shape without
    any RNG (the extension is a pure function of the index).
    """
    entries = list(_TAOBAO30[:min(n_domains, 30)])
    for i in range(30, n_domains):
        share = 0.004 / (i - 28) ** 1.05
        ctr = _TAOBAO30[i % 30][2]
        entries.append((f"D{i + 1}", share, ctr))
    return entries


def taobao_sim(n_domains, scale=1.0, seed=0, total_samples=None,
               n_users=None, n_items=None, min_domain_samples=None,
               name=None):
    """Parameterized Taobao analogue: ``n_domains`` Cloud-Theme domains.

    The single front door for the Taobao-10/20/30 presets (``n_domains``
    of 10/20/30 with everything else defaulted is bitwise-identical to
    the historical builders) *and* for the 10k-50k domain-scaling runs,
    which override ``total_samples`` / ``min_domain_samples`` to keep the
    tail sparse instead of letting the per-domain floor multiply.
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    if name is None:
        name = f"taobao{n_domains}_sim"
    if total_samples is None:
        total_samples = int(11_000 * scale * n_domains / 30)
    if n_users is None:
        n_users = int(700 * scale * n_domains / 30) + 150
    if n_items is None:
        n_items = int(400 * scale * n_domains / 30) + 100
    if min_domain_samples is None:
        min_domain_samples = _MIN_DOMAIN_SAMPLES
    return generate_dataset(SyntheticConfig(
        name=name,
        domains=_specs_from_shares(
            _taobao_entries(n_domains), total_samples,
            min_samples=min_domain_samples,
        ),
        n_users=n_users,
        n_items=n_items,
        feature_mode="fixed",
        feature_dim=16,
        conflict=0.65,
        seed=seed,
    ))


def taobao_online_sim(n_domains=60, total_samples=30_000, seed=0,
                      zipf_exponent=1.1):
    """Industry-scale analogue of Taobao-online (Section V-F).

    The paper's production dataset has 69,102 domains with a heavy-tailed
    size distribution (7,088 samples per domain on average, top domains far
    larger).  We reproduce the *shape* — many domains, Zipf-distributed
    sizes, random CTR ratios in [0.2, 0.5] — at a scale a laptop can train.
    """
    rng = spawn_rng(seed, "taobao_online_sim", "specs")
    weights = 1.0 / np.arange(1, n_domains + 1) ** zipf_exponent
    weights /= weights.sum()
    sizes = np.maximum((weights * total_samples).astype(int), _MIN_DOMAIN_SAMPLES)
    ratios = rng.uniform(0.2, 0.5, size=n_domains)
    specs = tuple(
        DomainSpec(f"online-D{i + 1}", int(sizes[i]), float(round(ratios[i], 2)))
        for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name="taobao_online_sim",
        domains=specs,
        n_users=max(1500, total_samples // 12),
        n_items=max(800, total_samples // 25),
        feature_mode="fixed",
        feature_dim=16,
        conflict=0.7,
        seed=seed,
    ))


def _taobao_preset(n_domains):
    # The string names are the stable preset vocabulary (configs, CLI,
    # saved results); code calls ``taobao_sim(n, ...)``.
    def build(scale=1.0, seed=0):
        return taobao_sim(n_domains, scale=scale, seed=seed)

    build.__name__ = f"taobao{n_domains}_sim_preset"
    return build


BENCHMARK_BUILDERS = {
    "amazon6_sim": amazon6_sim,
    "amazon13_sim": amazon13_sim,
    "taobao_sim": taobao_sim,
    "taobao10_sim": _taobao_preset(10),
    "taobao20_sim": _taobao_preset(20),
    "taobao30_sim": _taobao_preset(30),
    "taobao_online_sim": taobao_online_sim,
}


def dataset_by_name(name, **kwargs):
    """Build a benchmark dataset by name."""
    try:
        builder = BENCHMARK_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; expected one of {sorted(BENCHMARK_BUILDERS)}"
        ) from None
    return builder(**kwargs)
