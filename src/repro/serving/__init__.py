"""``repro.serving`` — online multi-domain inference (Section IV-E).

The deployment layer between a trained
:class:`~repro.core.param_space.DomainParameterSpace` and live CTR traffic:

* :mod:`repro.serving.snapshots` — versioned, copy-on-write materialized
  per-domain states with atomic hot-swap;
* :mod:`repro.serving.embedding_cache` — the serve-side LRU row cache of
  Figure 7;
* :mod:`repro.serving.service` — the :class:`Predictor` that scores
  per-domain batches against the live snapshot.

There is one request path: ``SnapshotStore`` → ``Predictor`` in process,
and ``AdmissionController`` → ``PredictorPool`` → ``Predictor`` under load
(:mod:`repro.traffic`, which owns queueing, batching and shedding).
Serving throughput and latency are measured by the benchmark of record
(``benchmarks/e2e``, lanes ``steady`` and ``churn``).
"""

from .embedding_cache import ServingEmbeddingCache
from .service import Predictor
from .snapshots import ModelSnapshot, SharedSnapshotArena, SnapshotStore

__all__ = [
    "SharedSnapshotArena",
    "ServingEmbeddingCache",
    "Predictor",
    "ModelSnapshot",
    "SnapshotStore",
]
