"""``repro.traffic`` — production-traffic harness for the serving tier.

What happens when *production traffic* hits the serving path
(:mod:`repro.serving`) and the drifted stream it retrains on
(:mod:`repro.online`):

* :mod:`repro.traffic.tracegen` — seeded, replayable traffic traces:
  a Zipf domain mix with Poisson arrivals at a flat rate, plus an
  adapter replaying the drifted :mod:`repro.online.stream` as a trace;
* :mod:`repro.traffic.pool` — an N-process predictor pool attached
  read-only to one shared-memory snapshot arena (COW structure intact),
  with generation-tagged hot reload under load and the
  pool/single-process bit-parity check across that reload;
* :mod:`repro.traffic.admission` — per-domain SLOs, bounded queues and
  load-shedding policies with conservation-checked accounting.

The open-loop replay itself — a trace offered on the wall clock through
the admission controller into the pool — is the benchmark's loop lane
(``benchmarks/e2e/loop_lane.py``).
"""

from .admission import AdmissionConfig, AdmissionController, DomainSLO
from .pool import PoolError, PredictorPool, check_pool_parity, fork_available
from .tracegen import Trace, TraceConfig, generate_trace, trace_from_stream

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "DomainSLO",
    "check_pool_parity",
    "PoolError",
    "PredictorPool",
    "fork_available",
    "Trace",
    "TraceConfig",
    "generate_trace",
    "trace_from_stream",
]
