"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
section, prints it, and persists the rendered text under
``benchmarks/results/`` so the output survives pytest's capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir, name, text):
    """Print a rendered table and persist it to the results directory."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")

