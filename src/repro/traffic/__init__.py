"""``repro.traffic`` — production-traffic harness for the serving tier.

What happens when *production traffic* hits the serving path
(:mod:`repro.serving`) and the drifted stream it retrains on
(:mod:`repro.online`):

* :mod:`repro.traffic.tracegen` — seeded, replayable traffic traces:
  Zipf domain mix, diurnal rate curves, Poisson/bursty arrivals, plus an
  adapter replaying the drifted :mod:`repro.online.stream` as a trace;
* :mod:`repro.traffic.pool` — an N-process predictor pool attached
  read-only to one shared-memory snapshot arena (COW structure intact),
  with generation-tagged hot reload under load;
* :mod:`repro.traffic.admission` — per-domain SLOs, bounded queues and
  load-shedding policies with conservation-checked accounting;
* :mod:`repro.traffic.replay` — a seeded virtual open-loop replay
  (saturation knee, overload shedding) and the pool/single-process
  bit-parity check across a hot reload.
"""

from .admission import AdmissionConfig, AdmissionController, DomainSLO
from .pool import PoolError, PredictorPool, fork_available
from .replay import (
    ServiceTimeModel,
    check_pool_parity,
    find_knee,
    simulate_replay,
    sweep_saturation,
)
from .tracegen import Trace, TraceConfig, generate_trace, trace_from_stream

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "DomainSLO",
    "ServiceTimeModel",
    "check_pool_parity",
    "find_knee",
    "simulate_replay",
    "sweep_saturation",
    "PoolError",
    "PredictorPool",
    "fork_available",
    "Trace",
    "TraceConfig",
    "generate_trace",
    "trace_from_stream",
]
