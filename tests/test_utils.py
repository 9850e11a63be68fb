"""Utilities: seeding, table formatting and the benchmark journal."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.utils import format_table, spawn_rng, stable_seed, update_journal
from repro.utils.journal import merge_cells


def test_stable_seed_deterministic_and_sensitive():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert stable_seed("a", 1) != stable_seed("b", 1)
    assert 0 <= stable_seed("x") < 2 ** 64


def test_spawn_rng_streams_independent():
    a = spawn_rng(0, "alpha")
    b = spawn_rng(0, "beta")
    a_again = spawn_rng(0, "alpha")
    draws_a = a.random(5)
    draws_b = b.random(5)
    assert not np.allclose(draws_a, draws_b)
    np.testing.assert_allclose(a_again.random(5), draws_a)


def test_format_table_alignment_and_floats():
    text = format_table(
        ["Name", "Value"],
        [["x", 0.123456], ["longer-name", 42]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "0.1235" in text
    assert "42" in text
    # all body lines have equal width
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_format_table_empty_rows():
    text = format_table(["A", "B"], [])
    assert "A" in text and "B" in text


def test_update_journal_merges_one_entry_and_keeps_the_rest(tmp_path):
    path = tmp_path / "BENCH_x.json"
    update_journal(path, "a", lambda entry: {"runs": 1})
    update_journal(path, "b", lambda entry: {"cells": [1]})
    update_journal(path, "a", lambda entry: {"runs": entry["runs"] + 1})
    assert json.loads(path.read_text()) == {
        "benchmarks": {"a": {"runs": 2}, "b": {"cells": [1]}}
    }


def test_merge_cells_refreshes_own_cells_and_keeps_the_curve(tmp_path):
    path = tmp_path / "BENCH_x.json"
    full = {"settings": {"run": "full"},
            "cells": [{"n": 10, "s": 1.0}, {"n": 1000, "s": 9.0}]}
    smoke = {"settings": {"run": "smoke"}, "cells": [{"n": 10, "s": 1.5}]}
    for record in (full, smoke):
        update_journal(path, "curve", merge_cells(record, lambda c: c["n"]))
    assert json.loads(path.read_text())["benchmarks"]["curve"] == {
        "settings": {"run": "smoke"},
        "cells": [{"n": 10, "s": 1.5}, {"n": 1000, "s": 9.0}],
    }


def test_update_journal_refuses_to_replace_a_corrupt_journal(tmp_path):
    """A truncated journal used to be silently replaced by an empty one,
    losing every other bench's cells."""
    path = tmp_path / "BENCH_x.json"
    truncated = '{"benchmarks": {"other": {"cells": [1, 2'
    path.write_text(truncated)
    with pytest.raises(ValueError, match="BENCH_x.json"):
        update_journal(path, "a", lambda entry: {"runs": 1})
    assert path.read_text() == truncated
