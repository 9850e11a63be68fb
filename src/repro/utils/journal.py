"""The ``BENCH_*.json`` journals: merge one bench's entry, keep the rest."""

from __future__ import annotations

import json
import pathlib

__all__ = ["update_journal", "merge_cells"]


def update_journal(path, key, merge):
    """Set ``benchmarks[key] = merge(previous entry)`` in the journal at
    ``path`` and rewrite it; every other entry is carried over untouched.

    ``merge`` receives the entry recorded so far (``{}`` on first write).
    A journal that exists but does not parse raises instead of being
    replaced: rewriting it would drop every other bench's recorded cells.
    """
    path = pathlib.Path(path)
    payload = {"benchmarks": {}}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"benchmark journal {path} is not valid JSON ({error}); "
                "refusing to overwrite it — repair or delete the file"
            ) from error
    benchmarks = payload.setdefault("benchmarks", {})
    benchmarks[key] = merge(benchmarks.get(key, {}))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def merge_cells(record, cell_key):
    """A merge for curve benches: ``record``'s settings replace the
    recorded ones and its cells replace the recorded cells with the same
    ``cell_key(cell)``, so a smoke run refreshes its own cells without
    clobbering the rest of the curve."""
    def merge(entry):
        cells = {
            cell_key(cell): cell
            for cell in entry.get("cells", []) + record["cells"]
        }
        return {**entry, "settings": record["settings"],
                "cells": [cells[key] for key in sorted(cells)]}

    return merge
