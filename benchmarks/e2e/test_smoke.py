"""Smoke test of the end-to-end benchmark (seconds per case).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload with ``--quick``, untraced and traced, and checks the
result schema against ``BENCHMARK.json`` and that every correctness check
passed.  It asserts nothing about timing, and sits outside tier-1's
``testpaths`` on purpose: it forks pool workers and takes about a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_matches_schema_and_passes_checks(workload, trace,
                                                    tmp_path):
    done = _run("--workload", workload, "--seed", 3, "--quick",
                "--trace", trace, "--out", tmp_path)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert all(math.isfinite(metric["value"])
               for metric in result["metrics"].values())
    record = json.loads(
        (tmp_path / f"run-{workload}-trace{trace}.json").read_text()
    )
    assert all(record["checks"].values())
    assert {"git_sha", "host", "nproc", "python", "numpy"} <= \
        set(record["provenance"])
    if trace:
        spans = json.loads(
            (tmp_path / f"trace-{workload}.json").read_text()
        )["spans"]
        assert spans and all(end >= start for _, start, end, _, _ in spans)


def _session_members(session):
    """Pids (zombies included) whose session id is ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:     # ended while we were looking
                continue
            if int(stat[stat.rindex(")") + 2:].split()[3]) == session:
                members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_no_process_outlives_a_run(tmp_path):
    """The pool workers and the multiprocessing resource tracker are all
    gone — waited for, not merely signalled — when the command returns."""
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve_churn",
         "--seed", "3", "--quick", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert done.wait(timeout=600) == 0
    assert _session_members(done.pid) == []


def _results(tmp_path, name, factor):
    workloads = {}
    for workload in SPEC["workloads"]:
        workloads[workload["name"]] = {"end_to_end": {
            metric["name"]: {"median": 100.0 * (
                factor if metric["name"] == "steady_p50_ms" else 1.0
            )}
            for metric in SPEC["end_to_end"]
        }}
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": workloads}))
    return path


def test_compare_exits_non_zero_only_beyond_the_bound(tmp_path):
    bound = next(metric["bound"] for metric in SPEC["end_to_end"]
                 if metric["name"] == "steady_p50_ms")
    base = _results(tmp_path, "a.json", 1.0)
    within = _results(tmp_path, "b.json", 1.0 + bound / 2)
    beyond = _results(tmp_path, "c.json", 1.0 + bound * 2)
    assert _run("--compare", base, within).returncode == 0
    done = _run("--compare", base, beyond)
    assert done.returncode == 1 and "REGRESSED" in done.stdout
    # A latency that fell is an improvement, not a regression.
    assert _run("--compare", beyond, base).returncode == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    for source in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / "e2e" / source.name).write_text(
            source.read_text()
        )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "serve_steady", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
