"""Correctness tooling: the runtime sanitizer and the repo-invariant lint.

Two layers guard the fast paths introduced by the perf work (zero-copy
views, in-place state algebra, sparse embedding gradients, compiled tape
replay):

* :mod:`repro.tooling.sanitizer` — tensor version counters checked in
  ``backward()``, :func:`anomaly_mode` NaN/Inf localisation, bitwise
  :func:`replay_verify`, and graph diagnostics (live-node census,
  SparseGrad densification counters).  The engine imports it; it is the
  only layer on the training path.
* :mod:`repro.tooling.lint` — the repo-invariant AST lint pass, rule
  plugins over one parse per file; run as
  ``python -m repro.tooling.lint src/`` (wired into CI).  Training never
  imports it.

Determinism is checked by running the code, not by reading it: the
tier-1 oracle ``tests/test_determinism_oracle.py`` runs the seeded
training entry points twice in two differently seeded processes and
pins their digests.  Compiled tapes are checked the same way, by
``Tape.replay_verified`` over every registry model.

See DESIGN.md §8 (sanitizer/lint) and §13 (determinism oracle) for the
full write-ups.
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
