"""``repro.distributed`` — simulated fault-tolerant PS-Worker runtime.

The Section IV-E production architecture, in-process and deterministic:

* :mod:`~repro.distributed.ps` — the parameter server: row-wise embedding
  access, sync/async rounds, push dedup, bounded-staleness rejection;
* :mod:`~repro.distributed.worker` / :mod:`~repro.distributed.cache` —
  worker replicas with the static/dynamic embedding cache;
* :mod:`~repro.distributed.transport` — the typed message channel every
  PS↔worker interaction goes through (pull/push/heartbeat requests,
  version-stamped responses, retry with backoff, the ``PSClient`` stub);
* :mod:`~repro.distributed.faults` — deterministic, seeded fault plans
  (drops, lost replies, duplicated deliveries, slow workers, mid-epoch
  crashes);
* :mod:`~repro.distributed.checkpoint` — checksummed PS checkpoints and
  exact resume;
* :mod:`~repro.distributed.cluster` — the driver: sharding, scheduling,
  heartbeat-based eviction with greedy re-sharding, checkpoint/resume.

Prefer driving training through :class:`repro.train.Session`; the names
below are the supported surface for building custom setups.
"""

from .cache import EmbeddingCache
from .checkpoint import ClusterCheckpoint, load_checkpoint, save_checkpoint
from .cluster import SimulatedCluster, reassign_domains, shard_domains
from .faults import FaultPlan, WorkerCrashed
from .ps import ParameterServer
from .transport import (
    Channel,
    DeliveryFailed,
    DirectChannel,
    FaultyChannel,
    HeartbeatRequest,
    MessageDropped,
    PSClient,
    PullDenseRequest,
    PullRowsRequest,
    PushRequest,
    ReplyLost,
    Response,
    RetryPolicy,
    TransportError,
    VirtualClock,
    call_with_retry,
)
from .worker import Worker, embedding_field_map, embedding_parameter_names

__all__ = [
    # server / workers / cache
    "ParameterServer",
    "EmbeddingCache",
    "Worker",
    "embedding_field_map",
    "embedding_parameter_names",
    # transport
    "Channel",
    "DirectChannel",
    "FaultyChannel",
    "PSClient",
    "RetryPolicy",
    "VirtualClock",
    "call_with_retry",
    "PullDenseRequest",
    "PullRowsRequest",
    "PushRequest",
    "HeartbeatRequest",
    "Response",
    "TransportError",
    "MessageDropped",
    "ReplyLost",
    "DeliveryFailed",
    # faults
    "FaultPlan",
    "WorkerCrashed",
    # checkpointing
    "ClusterCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    # cluster
    "SimulatedCluster",
    "shard_domains",
    "reassign_domains",
]
