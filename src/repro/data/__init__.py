"""``repro.data`` — multi-domain datasets.

Schema types, the latent-factor click simulator, benchmark presets scaled
from the paper's Tables I-IV, splitting, batching and statistics.
"""

from .batching import Batch, full_batch, iter_minibatches, sample_batch
from .benchmarks import (
    BENCHMARK_BUILDERS,
    amazon6_sim,
    amazon13_sim,
    dataset_by_name,
    taobao_sim,
    taobao_online_sim,
)
from .io import load_interactions_csv, save_interactions_csv
from .schema import Domain, InteractionTable, MultiDomainDataset
from .splits import split_table, temporal_split
from .stats import overall_stats_row, overall_stats_table, per_domain_stats_table
from .synthetic import DomainSpec, SyntheticConfig, generate_dataset

__all__ = [
    "Batch",
    "full_batch",
    "sample_batch",
    "iter_minibatches",
    "InteractionTable",
    "Domain",
    "MultiDomainDataset",
    "split_table",
    "temporal_split",
    "load_interactions_csv",
    "save_interactions_csv",
    "DomainSpec",
    "SyntheticConfig",
    "generate_dataset",
    "amazon6_sim",
    "amazon13_sim",
    "taobao_sim",
    "taobao_online_sim",
    "dataset_by_name",
    "BENCHMARK_BUILDERS",
    "overall_stats_row",
    "overall_stats_table",
    "per_domain_stats_table",
]
