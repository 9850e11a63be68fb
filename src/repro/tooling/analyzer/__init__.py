"""Whole-program static analysis for the repro codebase.

Two front ends share one pass/report/baseline infrastructure
(:mod:`.framework`):

* the **tape IR verifier** (:mod:`.tape_verifier`) — abstract
  interpretation over compiled kernel tapes: shape/dtype lattice,
  buffer def-use and aliasing proofs, backward cell dataflow.  A tape
  with no findings is *statically certified*.
* the **determinism/effect auditor** (:mod:`.effects`) — interprocedural
  AST effect inference over ``repro/distributed`` and ``repro/online``
  flagging paths by which ``SimulatedCluster.run`` /
  ``IncrementalTrainer.update`` results could depend on scheduling.

``python -m repro.tooling.analyze`` drives both against a committed
findings baseline.  It is a CI check: nothing on the training path
imports this package.
"""

from __future__ import annotations

from .effects import audit, audit_paths
from .framework import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    Finding,
    Report,
    UsageError,
)
from .project import FileEntry, FunctionInfo, ProjectIndex
from .tape_verifier import TapeCertificate, certify

__all__ = [
    "Baseline",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "FileEntry",
    "Finding",
    "FunctionInfo",
    "ProjectIndex",
    "Report",
    "TapeCertificate",
    "UsageError",
    "audit",
    "audit_paths",
    "certify",
]
