"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
section, prints it, and persists the rendered text under
``benchmarks/results/`` so the output survives pytest's capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Perf microbenchmarks (benchmarks/perf/) record their timings here; the
# session hook below merges them into BENCH_perf.json at the repo root so
# successive PRs accumulate a performance trajectory.
BENCH_PERF_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir, name, text):
    """Print a rendered table and persist it to the results directory."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def perf_records():
    """Mutable mapping perf benchmarks write their measurements into.

    Merged (not overwritten) into ``BENCH_perf.json`` at session end, so a
    partial run — e.g. ``pytest benchmarks/perf -m perf_smoke`` — only
    refreshes the entries it actually measured.
    """
    # Imported here: benchmarks/e2e puts src/ on the path itself and must
    # collect without the package installed.
    from repro.utils import update_journal

    records = {}
    yield records
    for name, record in records.items():
        update_journal(BENCH_PERF_PATH, name, lambda previous: record)
