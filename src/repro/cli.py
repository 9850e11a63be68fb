"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro.cli list
    python -m repro.cli run table5 [--scale 1.0] [--seeds 0,1,2]
    python -m repro.cli run fig9 --seeds 0
    python -m repro.cli stats taobao30_sim
    python -m repro.cli train --config session.json
    python -m repro.cli online-sim [--config session.json] [--seed 0]

Each ``run`` prints the same table the corresponding benchmark target
emits, without pytest in the loop.  ``train`` drives a single
:class:`repro.train.Session` from a unified JSON config file — the same
artifact works for local frameworks and the fault-injectable distributed
cluster — and ``online-sim`` reads the same file's ``online`` section to
configure the continual-learning pipeline.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .data import BENCHMARK_BUILDERS, dataset_by_name, per_domain_stats_table


def _seeds(text):
    return tuple(int(part) for part in text.split(",") if part != "")


def _run_table5(args):
    results = experiments.run_table5(scale=args.scale, seeds=args.seeds,
                                     verbose=args.verbose)
    print(experiments.render_table5(results))


def _run_table6(args):
    results = experiments.run_table6(scale=args.scale, seeds=args.seeds,
                                     verbose=args.verbose)
    print(experiments.render_table6(results))


def _run_table7(args):
    result = experiments.run_table7(scale=args.scale, seeds=args.seeds,
                                    verbose=args.verbose)
    print(experiments.render_table7(result))


def _run_industry(args):
    dataset, result = experiments.run_industry(seeds=args.seeds,
                                               verbose=args.verbose)
    print(experiments.render_table8(result))
    print()
    print(experiments.render_table9(dataset, result))


def _run_table10(args):
    results = experiments.run_table10(scale=args.scale, seeds=args.seeds,
                                      verbose=args.verbose)
    print(experiments.render_table10(results))


def _run_fig8(args):
    series = experiments.run_fig8(scale=args.scale, seeds=args.seeds,
                                  verbose=args.verbose)
    print(experiments.render_fig8(series))


def _run_fig9(args):
    grid = experiments.run_fig9(scale=args.scale, seeds=args.seeds,
                                verbose=args.verbose)
    print(experiments.render_fig9(grid))


EXPERIMENT_RUNNERS = {
    "table5": _run_table5,
    "table6": _run_table6,
    "table7": _run_table7,
    "table8": _run_industry,
    "table9": _run_industry,
    "table10": _run_table10,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="MAMDR reproduction harness"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments and datasets")

    run = commands.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", choices=sorted(EXPERIMENT_RUNNERS))
    run.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale factor (default 1.0)")
    run.add_argument("--seeds", type=_seeds, default=(0,),
                     help="comma-separated seeds to average (default: 0)")
    run.add_argument("--verbose", action="store_true")

    stats = commands.add_parser("stats", help="print a dataset's statistics")
    stats.add_argument("dataset", choices=sorted(BENCHMARK_BUILDERS))
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--domains", type=int, default=30,
                       help="domain count for the parameterized taobao_sim "
                            "preset (default: 30)")

    train = commands.add_parser(
        "train",
        help="train one session (framework or distributed cluster) from a "
             "unified JSON config file",
    )
    train.add_argument("--config", required=True,
                       help="path to a repro.train.SessionConfig JSON file")
    train.add_argument("--verbose", action="store_true")

    online = commands.add_parser(
        "online-sim",
        help="run the continual-learning pipeline on a drifted event "
             "stream: ingest, incremental DN/DR updates, gated snapshot "
             "publication with rollback, serving parity audit",
    )
    online.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: the config's, "
                             "else 0)")
    online.add_argument("--windows", type=int, default=None,
                        help="number of stream micro-epochs")
    online.add_argument("--window-events", type=int, default=None,
                        help="events per micro-epoch")
    online.add_argument("--drift-rate", type=float, default=None,
                        help="concept-drift strength gained per window")
    online.add_argument("--backend", choices=("local", "cluster"),
                        default=None,
                        help="shared-update path: in-process or the "
                             "simulated PS-Worker cluster")
    online.add_argument("--config", default=None,
                        help="optional SessionConfig JSON file; its "
                             "'online' section configures the pipeline")
    online.add_argument("--verbose", action="store_true")
    return parser


def _run_train(args):
    from .train import Session, SessionConfig
    from .utils.tables import format_table

    config = SessionConfig.from_file(args.config)
    session = Session(config)
    result = session.fit()
    report = result.report
    print(format_table(
        ["Domain", "AUC"],
        [[str(domain), auc] for domain, auc in sorted(report.per_domain.items())],
        title=f"{report.method} on {config.dataset}",
    ))
    print(f"mean AUC: {report.mean_auc:.4f}")
    if result.stats is not None:
        stats = result.stats
        print(
            f"cluster: ps_version={stats['ps_version']} "
            f"dedup_hits={stats['ps_dedup_hits']} "
            f"stale_rejections={stats['ps_stale_rejections']} "
            f"crashes={len(stats['crashes'])} "
            f"evictions={len(stats['evictions'])}"
        )
        if args.verbose:
            for worker_id, counters in sorted(stats["transport"].items()):
                line = " ".join(
                    f"{key}={value}" for key, value in sorted(counters.items())
                )
                print(f"  worker {worker_id}: {line}")
    return 0


def _run_online_sim(args):
    from dataclasses import replace

    from .online.sim import (
        OnlineSimConfig,
        build_sim_config,
        render_online_sim,
        run_online_sim,
    )

    if args.config is not None:
        from .train import SessionConfig

        config = build_sim_config(SessionConfig.from_file(args.config))
    else:
        config = OnlineSimConfig()
    if args.seed is not None:
        config = config.updated(seed=args.seed)
    stream_changes = {}
    if args.windows is not None:
        stream_changes["n_windows"] = args.windows
    if args.window_events is not None:
        stream_changes["window_events"] = args.window_events
    if args.drift_rate is not None:
        stream_changes["drift_rate"] = args.drift_rate
    if stream_changes:
        stream = replace(config.stream, **stream_changes)
        changes = {"stream": stream}
        # Keep the injected-regression window valid when a shorter stream
        # is requested: it must stay post-bootstrap and pre-final.
        inject = config.inject_regression_at
        if inject is not None:
            changes["inject_regression_at"] = min(
                max(inject, config.bootstrap_windows), stream.n_windows - 2
            )
        config = config.updated(**changes)
    if args.backend is not None:
        config = config.updated(backend=args.backend)
    results = run_online_sim(config, verbose=args.verbose)
    print(render_online_sim(results))
    if not results["parity"]["exact"]:
        print("serving/offline parity FAILED", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("experiments:", ", ".join(sorted(EXPERIMENT_RUNNERS)))
        print("datasets:   ", ", ".join(sorted(BENCHMARK_BUILDERS)))
        return 0
    if args.command == "stats":
        if args.dataset == "taobao_online_sim":
            dataset = dataset_by_name(args.dataset)
        elif args.dataset == "taobao_sim":
            dataset = dataset_by_name(args.dataset, n_domains=args.domains,
                                      scale=args.scale)
        else:
            dataset = dataset_by_name(args.dataset, scale=args.scale)
        print(per_domain_stats_table(dataset))
        return 0
    if args.command == "train":
        return _run_train(args)
    if args.command == "online-sim":
        return _run_online_sim(args)
    EXPERIMENT_RUNNERS[args.experiment](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
