"""``repro.online`` — the continual-learning pipeline (Section IV-E).

Streaming ingestion with seeded concept drift, incremental DN/DR updates
warm-started from published snapshots, a validation gate with automatic
rollback + quarantine, and drift monitoring:

    stream → trainer → gate/publisher → snapshot store → serving

See ``python -m repro.cli online-sim`` for the end-to-end demo (the
prequential incremental-vs-frozen AUC), DESIGN.md §11 for the
architecture, and the ``online_loop`` workload of ``benchmarks/e2e`` for
its measured throughput and latency.
"""

from .drift import DriftMonitor, population_stability_index
from .gate import DomainVerdict, GateConfig, GateDecision, ValidationGate
from .publisher import GatedPublisher, PublishResult, QuarantineRecord
from .sim import (
    OnlineSimConfig,
    build_sim_config,
    render_online_sim,
    run_online_sim,
)
from .stream import EventStream, StreamConfig, StreamWindow
from .trainer import (
    IncrementalTrainer,
    OnlineUpdate,
    ReplayBuffer,
    space_from_snapshot,
)

__all__ = [
    "DriftMonitor",
    "population_stability_index",
    "GateConfig",
    "GateDecision",
    "DomainVerdict",
    "ValidationGate",
    "GatedPublisher",
    "PublishResult",
    "QuarantineRecord",
    "OnlineSimConfig",
    "build_sim_config",
    "run_online_sim",
    "render_online_sim",
    "EventStream",
    "StreamConfig",
    "StreamWindow",
    "IncrementalTrainer",
    "OnlineUpdate",
    "ReplayBuffer",
    "space_from_snapshot",
]
