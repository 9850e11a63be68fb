"""Driver for the whole-program analyzers — ``python -m repro.tooling.analyze``.

Runs the two :mod:`repro.tooling.analyzer` front ends and reports through
the shared baseline machinery:

* ``tape`` — traces one training step for every model in the registry on
  a small synthetic multi-domain dataset, and one more from a batch in the
  columnar plane's dtypes (uint32 ids, float32 labels), then statically
  verifies each compiled tape (shape/dtype abstract interpretation, buffer
  def-use and aliasing proofs, backward cell dataflow).  Models
  whose step legitimately bails out of compilation are recorded with the
  bail reason, not failed.
* ``effects`` — interprocedural determinism/effect audit over the
  parallel runtime (``repro/distributed`` + ``repro/online``), flagging
  paths by which the parallel entry points could depend on worker count
  or scheduling.

Exit codes: ``0`` clean or fully baselined, ``1`` new findings, ``2``
usage error.  CI runs this with ``--baseline analyzer_baseline.json`` and
uploads the ``--json`` report as an artifact.

Run::

    PYTHONPATH=src python -m repro.tooling.analyze
    PYTHONPATH=src python -m repro.tooling.analyze --frontend effects
    PYTHONPATH=src python -m repro.tooling.analyze \
        --baseline analyzer_baseline.json --json analyzer_report.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .analyzer import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    Report,
    UsageError,
    audit_paths,
    certify,
)

__all__ = ["run_tape_frontend", "run_effects_frontend", "main"]

FRONTENDS = ("tape", "effects")

#: default audit perimeter for the effects front end.
EFFECT_PATHS = ("src/repro/distributed", "src/repro/online")


def _tape_dataset(seed=0, feature_mode="fixed"):
    from ..data import DomainSpec, SyntheticConfig, generate_dataset

    specs = tuple(
        DomainSpec(f"C{i}", 80, 0.25 + 0.05 * i) for i in range(2)
    )
    return generate_dataset(SyntheticConfig(
        name="analyze", domains=specs, n_users=60, n_items=40,
        latent_dim=4, feature_mode=feature_mode, feature_dim=8, seed=seed,
    ))


def _columnar(batch):
    """``batch`` in the columnar plane's dtypes: uint32 ids, float32 labels."""
    return dataclasses.replace(
        batch, users=batch.users.astype(np.uint32),
        items=batch.items.astype(np.uint32),
        labels=batch.labels.astype(np.float32),
    )


def run_tape_frontend(report, models=None, seed=0):
    """Trace + statically certify tapes for every registry model.

    Each model is traced twice: on a fixed-feature batch (entry
    ``name/d0``) and on a trainable-embedding batch in the columnar plane's
    dtypes (entry ``name/columnar``, the path the online trainer replays).
    Returns ``{entry: certificate}``.  Certification *findings* go into
    the report; a compile bail (no tape at all) is only a stat — eager
    execution needs no certificate.
    """
    from ..data import sample_batch
    from ..models import MODEL_REGISTRY, build_model
    from ..nn.compile import executor_for
    from ..nn.optim import make_optimizer
    from ..utils.seeding import spawn_rng

    names = sorted(models or MODEL_REGISTRY)
    unknown = set(names) - set(MODEL_REGISTRY)
    if unknown:
        raise UsageError(f"unknown model(s): {', '.join(sorted(unknown))}")
    cases = (
        ("d0", _tape_dataset(seed), None),
        ("columnar", _tape_dataset(seed, "trainable"), _columnar),
    )
    rng = spawn_rng(seed, "analyze", "batch")
    stats, certificates = {}, {}
    for name in names:
        for case, dataset, convert in cases:
            entry_name = f"{name}/{case}"
            model = build_model(name, dataset, seed=seed)
            optimizer = make_optimizer("adam", model.parameters(), 0.05)
            batch = sample_batch(dataset.domain(0).train, 0, 16, rng)
            if convert is not None:
                batch = convert(batch)
            tape = executor_for(model).tape_for(batch, optimizer)
            if tape is None:
                stats[entry_name] = {"certified": False,
                                     "bail": "compile bail (eager step)"}
                continue
            certificate = certify(tape, name=f"tape:{entry_name}")
            certificates[entry_name] = certificate
            report.extend(certificate.findings)
            entry = {
                "certified": certificate.certified,
                "n_records": certificate.n_records,
                "n_kernels": certificate.n_kernels,
                "n_backward": certificate.n_backward,
                "imprecise": certificate.imprecise,
            }
            if not certificate.certified:
                entry["bail"] = certificate.bail_reason
            stats[entry_name] = entry
    certified = sum(1 for s in stats.values() if s["certified"])
    report.note("tape", models=stats, certified=certified, total=len(stats))
    return certificates


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
        description="Whole-program static analysis: tape IR verification "
                    "and the determinism/effect audit.",
    )
    parser.add_argument(
        "--frontend", default=",".join(FRONTENDS),
        help=f"comma-separated front ends to run (default: all of "
             f"{', '.join(FRONTENDS)})",
    )
    parser.add_argument(
        "--paths", nargs="*", default=list(EFFECT_PATHS),
        help="directories for the effects audit "
             f"(default: {' '.join(EFFECT_PATHS)})",
    )
    parser.add_argument(
        "--models", default=None,
        help="comma-separated registry models for the tape front end "
             "(default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
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
        frontends = [f.strip() for f in args.frontend.split(",") if f.strip()]
        unknown = set(frontends) - set(FRONTENDS)
        if unknown:
            raise UsageError(
                f"unknown front end(s): {', '.join(sorted(unknown))} "
                f"(expected: {', '.join(FRONTENDS)})"
            )
        models = (
            [m.strip() for m in args.models.split(",") if m.strip()]
            if args.models else None
        )
        baseline = Baseline.load(args.baseline) if args.baseline else None
        report = Report()
        if "tape" in frontends:
            run_tape_frontend(report, models=models, seed=args.seed)
        if "effects" in frontends:
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

    tape_stats = report.frontends.get("tape")
    if tape_stats:
        print(
            f"tape: {tape_stats['certified']}/{tape_stats['total']} model "
            "tapes statically certified"
        )
        for name, entry in sorted(tape_stats["models"].items()):
            status = "certified" if entry["certified"] else \
                f"NOT certified ({entry.get('bail', '?')})"
            print(f"  {name}: {status}")
    effects_stats = report.frontends.get("effects")
    if effects_stats:
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
