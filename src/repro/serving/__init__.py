"""``repro.serving`` — online multi-domain inference (Section IV-E).

The deployment layer between a trained
:class:`~repro.core.param_space.DomainParameterSpace` and live CTR traffic:

* :mod:`repro.serving.snapshots` — versioned, copy-on-write materialized
  per-domain states with atomic hot-swap;
* :mod:`repro.serving.embedding_cache` — the serve-side static/dynamic row
  cache of Figure 7;
* :mod:`repro.serving.batcher` — micro-batching of single-row requests
  into per-domain batches;
* :mod:`repro.serving.service` — the Predictor/ServingService front door
  with latency percentiles and QPS accounting.

Serving throughput and latency are measured by the benchmark of record
(``benchmarks/e2e``, lanes ``steady`` and ``churn``).
"""

from .batcher import BatchingPolicy, MicroBatcher, PendingRequest
from .embedding_cache import ServingEmbeddingCache, training_access_counts
from .service import LatencyRecorder, Predictor, ServingService
from .snapshots import ModelSnapshot, SharedSnapshotArena, SnapshotStore

__all__ = [
    "SharedSnapshotArena",
    "BatchingPolicy",
    "MicroBatcher",
    "PendingRequest",
    "ServingEmbeddingCache",
    "training_access_counts",
    "LatencyRecorder",
    "Predictor",
    "ServingService",
    "ModelSnapshot",
    "SnapshotStore",
]
