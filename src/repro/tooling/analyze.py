"""Driver for the determinism audit — ``python -m repro.tooling.analyze``.

Runs the :mod:`repro.tooling.analyzer` effects front end — an
interprocedural determinism/effect audit over the parallel runtime
(``repro/distributed`` + ``repro/online``), flagging paths by which the
parallel entry points could depend on worker count or scheduling — and
reports through the shared baseline machinery.  The default paths are
resolved from the package directory, so the command works from any
working directory.

Exit codes: ``0`` clean or fully baselined, ``1`` new findings, ``2``
usage error.  CI runs this with ``--baseline analyzer_baseline.json`` and
uploads the ``--json`` report as an artifact.

Run::

    PYTHONPATH=src python -m repro.tooling.analyze
    PYTHONPATH=src python -m repro.tooling.analyze \
        --baseline analyzer_baseline.json --json analyzer_report.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analyzer import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    Report,
    UsageError,
    audit_paths,
)

__all__ = ["run_effects_frontend", "main"]

_PACKAGE = Path(__file__).resolve().parents[1]

#: default audit perimeter for the effects front end.
EFFECT_PATHS = tuple(str(_PACKAGE / sub) for sub in ("distributed", "online"))


def run_effects_frontend(report, paths=EFFECT_PATHS):
    for path in paths:
        if not Path(path).exists():
            raise UsageError(f"no such file or directory: {path}")
    findings, stats = audit_paths(paths)
    report.extend(findings)
    report.note("effects", paths=list(map(str, paths)), **stats)
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tooling.analyze",
        description="Whole-program static analysis: the determinism/effect "
                    "audit of the parallel runtime.",
    )
    parser.add_argument(
        "--paths", nargs="*", default=list(EFFECT_PATHS),
        help="directories for the effects audit (default: the package's "
             "distributed/ and online/)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable JSON report",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed findings baseline; fail only on new findings",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the current findings as the new baseline and exit 0",
    )
    args = parser.parse_args(argv)

    try:
        baseline = Baseline.load(args.baseline) if args.baseline else None
        report = Report()
        run_effects_frontend(report, paths=args.paths)
    except UsageError as error:
        print(f"repro.tooling.analyze: error: {error}", file=sys.stderr)
        return EXIT_USAGE

    new, known = report.finalize(baseline)
    if args.write_baseline:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(
            f"repro.tooling.analyze: wrote baseline with "
            f"{len(report.findings)} finding(s) to {args.write_baseline}"
        )
        return EXIT_CLEAN
    if args.json:
        report.write_json(args.json, baseline)

    effects_stats = report.frontends["effects"]
    print(
        f"effects: {effects_stats['functions']} functions audited "
        f"under {', '.join(effects_stats['paths'])}"
    )
    for finding in sorted(
        report.findings, key=lambda f: (f.path, f.line, f.rule)
    ):
        marker = "" if baseline is None or finding in baseline else " [NEW]"
        print(f"{finding.render()}{marker}")
    if baseline is not None:
        stale = baseline.stale_entries(report.findings)
        for entry in stale:
            print(
                f"note: baseline entry no longer matched: "
                f"{entry['path']} [{entry['frontend']}/{entry['rule']}]"
            )
    status = "FAILED" if new else "ok"
    suffix = f" ({len(known)} baselined)" if known else ""
    print(
        f"repro.tooling.analyze: {len(report.findings)} finding(s)"
        f"{suffix} — {status}"
    )
    return EXIT_FINDINGS if new else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
