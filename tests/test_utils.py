"""Utilities: seeding and table formatting."""

from __future__ import annotations

import numpy as np

from repro.utils import format_table, spawn_rng, stable_seed


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

