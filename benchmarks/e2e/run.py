"""The end-to-end benchmark of record: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

measures one workload once and prints, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (names and units are those of ``BENCHMARK.json``).

Without ``--workload`` it runs every workload ``--repeats`` times untraced
and once traced, each in a fresh process, prints every metric by name with
its unit, writes ``<out>/results.json`` and exits non-zero if a
correctness check failed.  ``--compare A.json B.json`` compares two such
files against the bounds in ``BENCHMARK.json``.

See README.md next to this file for what the names mean.
"""

import os

# One BLAS thread, set before numpy is imported: with OpenBLAS's default of
# one thread per core a fit took 5.4-6.2 s instead of 4.3-4.6 s in the
# issue's sizing, and the driver and the pool worker fought over two cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(spec, kind):
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_one(args, spec):
    """One workload, once, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from bench import run_workload
    from spans import provenance

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.out, quick=args.quick)
    units = _units(spec, "per_layer" if args.trace else "end_to_end")
    if set(record["metrics"]) != set(units):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(record['metrics']) ^ set(units))}"
        )
    record["provenance"] = provenance(ROOT)
    record["metrics"] = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in record["metrics"].items()
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"run-{args.workload}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} units={record['units']} "
          f"measured_s={record['measured_s']:.2f}")
    print(f"# provenance {json.dumps(record['provenance'])}")
    for name, metric in record["metrics"].items():
        print(f"{name:46s} {metric['value']:14.6g} {metric['unit']}")
    for name, stats in record["samples"].items():
        print(f"# sample {name:38s} n={stats['n']} "
              f"median={stats['median']:.6g} q1={stats['q1']:.6g} "
              f"q3={stats['q3']:.6g}")
    for name, (attempted, failed) in record["operations"].items():
        print(f"# operations {name}: attempted={attempted} failed={failed}")
    for name, passed in record["checks"].items():
        print(f"# check {name}: {'ok' if passed else 'FAILED'}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def _child(args, workload, trace):
    """Run one workload in a fresh process (``VmHWM`` is per process) and
    return the record it wrote."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(args.out)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
    path = args.out / f"run-{workload}-trace{trace}.json"
    if done.returncode not in (0, 1) or not path.exists():
        raise SystemExit(f"{workload} (trace={trace}) exited "
                         f"{done.returncode} without a result")
    return json.loads(path.read_text())


def run_all(args, spec):
    """Every workload: ``--repeats`` untraced runs and one traced run."""
    from spans import summary

    results = {"seed": args.seed, "seconds": args.seconds,
               "repeats": args.repeats, "quick": args.quick, "workloads": {}}
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_child(args, workload, 0) for _ in range(args.repeats)]
        traced = _child(args, workload, 1)
        end_to_end = {}
        for name, unit in _units(spec, "end_to_end").items():
            values = [run["metrics"][name]["value"] for run in runs]
            end_to_end[name] = dict(summary(values), unit=unit, values=values)
        entry = results["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "operations": runs[-1]["operations"],
            "checks": [run["checks"] for run in (*runs, traced)],
            "correct": all(run["correct"] for run in (*runs, traced)),
        }
        results["provenance"] = traced["provenance"]
        correct = correct and entry["correct"]
        print(f"== {workload}: {'correct' if entry['correct'] else 'FAILED'}"
              f", operations {entry['operations']}")
        for name, stats in end_to_end.items():
            spread = (stats["q3"] - stats["q1"]) / stats["median"]
            print(f"{name:46s} {stats['median']:14.6g} {stats['unit']:6s} "
                  f"n={stats['n']} spread={spread:.3f}")
        for name, metric in traced["metrics"].items():
            print(f"{name:46s} {metric['value']:14.6g} {metric['unit']}")
    (args.out / "results.json").write_text(json.dumps(results, indent=1)
                                           + "\n")
    print(f"wrote {args.out / 'results.json'}")
    return 0 if correct else 1


def compare(first, second, spec):
    """Per workload and end-to-end metric: both medians, how much worse
    the second is as a share of the first, and the bound."""
    before = json.loads(Path(first).read_text())["workloads"]
    after = json.loads(Path(second).read_text())["workloads"]
    regressed = 0
    for workload in before:
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = before[workload]["end_to_end"][name]["median"]
            b = after[workload]["end_to_end"][name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            verdict = "ok"
            if worse > bound:
                verdict = "REGRESSED"
                regressed += 1
            elif worse < -bound:
                verdict = "improved beyond the bound"
            print(f"{name:28s} {a:12.5g} {b:12.5g} {metric['unit']:6s} "
                  f"worse by {worse:+.3f} (bound {bound}) {verdict}")
    return 1 if regressed else 0


def main(argv=None):
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: schema and checks, no timing value")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload without --workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
