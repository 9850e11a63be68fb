"""Correctness tooling: runtime sanitizer + whole-program static analysis.

Three layers guard the fast paths introduced by the perf work (zero-copy
views, in-place state algebra, sparse embedding gradients, compiled tape
replay):

* :mod:`repro.tooling.sanitizer` — tensor version counters checked in
  ``backward()``, :func:`anomaly_mode` NaN/Inf localisation, bitwise
  :func:`replay_verify`, and graph diagnostics (live-node census,
  SparseGrad densification counters).  The engine imports it; it is the
  only layer on the training path.
* :mod:`repro.tooling.analyzer` — the static-analysis framework: the
  tape IR verifier (abstract interpretation over compiled kernel tapes,
  aliasing proofs) and the determinism/effect auditor over the parallel
  runtime.  A CI check driven by ``python -m repro.tooling.analyze``;
  training never imports it.
* :mod:`repro.tooling.lint` — the repo-invariant lint pass, rebuilt as
  rule plugins over the analyzer's shared project index; run as
  ``python -m repro.tooling.lint src/`` (wired into CI).

See DESIGN.md §8 (sanitizer/lint) and §13 (static analysis) for the full
write-ups.
"""

from .sanitizer import (
    AnomalyError,
    ReplayMismatchError,
    SanitizerError,
    VersionError,
    anomaly_enabled,
    anomaly_mode,
    densify_counts,
    enabled,
    graph_census,
    replay_verify,
    replay_verify_enabled,
    sanitize,
)

__all__ = [
    "SanitizerError",
    "VersionError",
    "AnomalyError",
    "ReplayMismatchError",
    "sanitize",
    "anomaly_mode",
    "replay_verify",
    "replay_verify_enabled",
    "enabled",
    "anomaly_enabled",
    "graph_census",
    "densify_counts",
]
