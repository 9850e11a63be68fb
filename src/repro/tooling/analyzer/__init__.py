"""Whole-program static analysis for the repro codebase.

Two front ends share one pass/report/baseline infrastructure
(:mod:`.framework`):

* the **tape IR verifier** (:mod:`.tape_verifier`) — abstract
  interpretation over compiled kernel tapes: shape/dtype lattice,
  buffer def-use and aliasing proofs, lifetime-based buffer-reuse
  planning.  A passing tape is *statically certified* and the executor
  may skip the bitwise eager re-verification on it.
* the **determinism/effect auditor** (:mod:`.effects`) — interprocedural
  AST effect inference over ``repro/distributed`` and ``repro/online``
  flagging paths by which ``SimulatedCluster.run`` /
  ``IncrementalTrainer.update`` results could depend on scheduling.

``python -m repro.tooling.analyze`` drives both against a committed
findings baseline.
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
from .tape_verifier import (
    BufferPlan,
    TapeCertificate,
    certify,
    verify_tape,
)

__all__ = [
    "Baseline",
    "BufferPlan",
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
    "verify_tape",
]
