"""Shared pass/report/baseline infrastructure for the static analyzers.

Every front end — the determinism/effect auditor and the rebuilt lint
pass — emits :class:`Finding` objects and reports
them through the same machinery:

* **Findings** carry a content-derived *fingerprint* that is stable under
  line drift (the line number is excluded), so a committed baseline keeps
  matching after unrelated edits to the same file.
* **Baselines** are committed JSON files listing reviewed findings; a run
  fails only on findings *not* in the baseline, which is how a
  whole-program auditor with a handful of sanctioned hits (telemetry
  wall-clock reads, reviewed set iterations) can gate CI without freezing
  the codebase.
* **Reports** serialize a full run — per-front-end stats plus every
  finding and its baseline status — to machine-readable JSON for the CI
  artifact.

Exit-code contract (shared by ``repro.tooling.analyze`` and
``repro.tooling.lint``): ``0`` clean (or all findings baselined), ``1``
new findings, ``2`` usage/IO error.  :class:`UsageError` is what front
ends raise for the latter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "UsageError",
    "Finding",
    "Baseline",
    "Report",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

REPORT_VERSION = 1
BASELINE_VERSION = 1


class UsageError(Exception):
    """A usage/IO error (bad path, unknown rule, unreadable baseline).

    Distinct from findings: drivers translate it to exit code 2 so CI can
    tell "the analyzer could not run" from "the analyzer found problems".
    """


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, front-end agnostic.

    ``path`` is a repo-relative posix path; ``symbol`` is the enclosing
    function context.  The fingerprint hashes everything
    *except* the line/column, so baselines survive unrelated line drift.
    """

    frontend: str
    rule: str
    path: str
    message: str
    line: int = 0
    col: int = 0
    symbol: str = ""

    def fingerprint(self):
        payload = "\x1f".join(
            (self.frontend, self.rule, self.path, self.symbol, self.message)
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def render(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        context = f" ({self.symbol})" if self.symbol else ""
        return f"{where}: [{self.frontend}/{self.rule}]{context} {self.message}"

    def to_dict(self):
        record = asdict(self)
        record["fingerprint"] = self.fingerprint()
        return record

    @classmethod
    def from_dict(cls, record):
        known = {f: record[f] for f in (
            "frontend", "rule", "path", "message") if f in record}
        for optional in ("line", "col", "symbol"):
            if optional in record:
                known[optional] = record[optional]
        return cls(**known)


class Baseline:
    """A committed set of reviewed findings, matched by fingerprint.

    Fingerprints form a *set*: two byte-identical findings in one function
    (e.g. repeated ``perf_counter`` reads) share an entry, so the baseline
    stays small and review-friendly at the cost of not counting
    occurrences.  Entries keep the human-readable fields alongside the
    fingerprint so reviewers can audit the file without running the tool.
    """

    def __init__(self, entries=()):
        self.entries = list(entries)
        self._fingerprints = {e["fingerprint"] for e in self.entries}

    def __len__(self):
        return len(self._fingerprints)

    def __contains__(self, finding):
        return finding.fingerprint() in self._fingerprints

    def split(self, findings):
        """Partition ``findings`` into (new, baselined)."""
        new, known = [], []
        for finding in findings:
            (known if finding in self else new).append(finding)
        return new, known

    def stale_entries(self, findings):
        """Baseline entries no longer matched by any current finding."""
        live = {f.fingerprint() for f in findings}
        return [e for e in self.entries if e["fingerprint"] not in live]

    @classmethod
    def from_findings(cls, findings):
        entries, seen = [], set()
        for finding in sorted(
            findings, key=lambda f: (f.path, f.rule, f.symbol, f.message)
        ):
            fingerprint = finding.fingerprint()
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            record = finding.to_dict()
            # Line/col are informational in a baseline (excluded from the
            # fingerprint); keep them for the reviewer reading the file.
            entries.append(record)
        return cls(entries)

    @classmethod
    def load(cls, path):
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise UsageError(f"baseline file not found: {path}") from None
        except (OSError, json.JSONDecodeError) as error:
            raise UsageError(f"cannot read baseline {path}: {error}") from None
        entries = payload.get("entries")
        if not isinstance(entries, list) or any(
            "fingerprint" not in e for e in entries
        ):
            raise UsageError(f"malformed baseline file: {path}")
        return cls(entries)

    def save(self, path):
        payload = {
            "version": BASELINE_VERSION,
            "tool": "repro.tooling.analyzer",
            "entries": self.entries,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass
class Report:
    """One analyzer run: findings plus per-front-end statistics."""

    findings: list = field(default_factory=list)
    frontends: dict = field(default_factory=dict)

    def extend(self, findings):
        self.findings.extend(findings)

    def note(self, frontend, **stats):
        self.frontends.setdefault(frontend, {}).update(stats)

    def finalize(self, baseline=None):
        """Apply ``baseline`` and return the (new, baselined) partition."""
        if baseline is None:
            return list(self.findings), []
        return baseline.split(self.findings)

    def to_dict(self, baseline=None):
        new, known = self.finalize(baseline)
        return {
            "version": REPORT_VERSION,
            "tool": "repro.tooling.analyzer",
            "frontends": self.frontends,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "total": len(self.findings),
                "new": len(new),
                "baselined": len(known),
            },
        }

    def write_json(self, path, baseline=None):
        Path(path).write_text(
            json.dumps(self.to_dict(baseline), indent=2, sort_keys=True) + "\n"
        )
