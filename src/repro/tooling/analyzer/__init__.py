"""Whole-program static analysis for the repro codebase.

One shared pass/report/baseline infrastructure (:mod:`.framework`) over
an AST project index (:mod:`.project`), used by two clients:

* the **determinism/effect auditor** (:mod:`.effects`) — interprocedural
  AST effect inference over ``repro/distributed`` and ``repro/online``
  flagging paths by which ``SimulatedCluster.run`` /
  ``IncrementalTrainer.update`` results could depend on scheduling.
  ``python -m repro.tooling.analyze`` drives it against a committed
  findings baseline;
* the repo-invariant lint pass (:mod:`repro.tooling.lint`).

Compiled tapes are checked dynamically, not here: ``Tape.replay_verified``
re-runs each step eagerly and compares bitwise.  This package is a CI
check: nothing on the training path imports it.
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
    "UsageError",
    "audit",
    "audit_paths",
]
