"""Data-plane benchmark: write, open and iterate 1e6–1e8-event files.

The columnar store's whole reason to exist is the paper's 4.9e8-sample
production stream: datasets that cannot be materialized in RAM must still
load in O(1) and feed an epoch at memory-bandwidth speed.  This bench
measures exactly that contract per event count:

* **write** — stream a synthetic Zipf-domain event log to disk through
  the out-of-core :class:`~repro.data.columnar.ColumnarWriter` (bounded
  RAM regardless of size);
* **open** — map the file with :meth:`ColumnarStore.open` (header-only;
  must not scale with file size);
* **epoch** — one full :func:`~repro.data.batching.iter_store_batches`
  pass that *touches every byte* of the users/items/labels columns
  (reductions per batch), with the iterator's periodic
  ``madvise(MADV_DONTNEED)`` release keeping residency flat.

Peak RSS is sampled from ``/proc/self/status`` (``VmRSS``) rather than
``ru_maxrss`` because mapped pages the epoch touches *do* count toward
RSS and ``ru_maxrss`` only ever grows — the constancy claim is about the
live footprint, which must stay within 2x when the dataset grows 100x.

``python -m repro.cli data-bench`` writes the curve to
``BENCH_data.json`` (same journal conventions as the other benches) and
exits non-zero when the acceptance gates — ≥1e7 events/s load+epoch and
RSS constancy across the size sweep — fail.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..utils.journal import merge_cells, update_journal
from ..utils.seeding import spawn_rng
from .batching import iter_store_batches
from .columnar import STREAM_COLUMNS, ColumnarStore, ColumnarWriter

__all__ = [
    "DEFAULT_BENCH_PATH",
    "EVENTS_PER_S_TARGET",
    "RSS_RATIO_LIMIT",
    "generate_event_file",
    "bench_cell",
    "run_data_bench",
    "check_data_bench",
    "render_data_bench",
    "write_bench_record",
]

DEFAULT_BENCH_PATH = "BENCH_data.json"

#: acceptance gates (ROADMAP budget): load + one epoch must sustain at
#: least this many events per second on the largest on-disk cell ...
EVENTS_PER_S_TARGET = 10_000_000
#: ... with a peak RSS within this factor of the smallest cell's.
RSS_RATIO_LIMIT = 2.0


def _vm_rss_mb():
    """Current resident set in MB (``VmRSS``), or None off-Linux."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def _zipf_probs(n, exponent):
    weights = (np.arange(n) + 1.0) ** -float(exponent)
    return weights / weights.sum()


def generate_event_file(path, n_events, *, n_domains=32, n_users=1_000_000,
                        n_items=200_000, window_events=4_000_000,
                        domain_skew=1.1, target_ctr=0.3, seed=0):
    """Write a synthetic Zipf-domain event stream straight to disk.

    Everything is vectorized per window (ids via ``rng.integers``-style
    draws from ``spawn_rng`` streams, labels as Bernoulli(ctr)) and
    appended window-by-window, so generation RAM is one window, not the
    stream.  Extents mirror a recorded stream's micro-epochs — the file
    reads back through the same store/batching surface as a real archive.
    Returns the written header dict.
    """
    if n_events < 1:
        raise ValueError("n_events must be positive")
    probs = _zipf_probs(n_domains, domain_skew)
    with ColumnarWriter(
        path, STREAM_COLUMNS, kind="stream", name="databench",
        n_users=n_users, n_items=n_items,
        meta={"synthetic": True, "n_domains": n_domains,
              "target_ctr": target_ctr, "seed": seed},
    ) as writer:
        written = 0
        window = 0
        while written < n_events:
            count = min(window_events, n_events - written)
            rng = spawn_rng(seed, "databench", "window", window)
            writer.new_extent(index=window, start_time=written,
                              watermark=written + count - 1, drift=0.0)
            writer.append(
                users=rng.integers(0, n_users, size=count),
                items=rng.integers(0, n_items, size=count),
                labels=(rng.random(count) < target_ctr),
                domains=rng.choice(n_domains, size=count, p=probs),
                times=written + np.arange(count, dtype=np.int64),
            )
            written += count
            window += 1
        return writer.finalize()


def bench_cell(n_events, *, batch_size=65536, release_every_rows=1 << 20,
               workdir=".", keep_file=False, seed=0, verbose=False):
    """One size point: write the file, open it, run one epoch pass.

    The epoch reduces every batch's users/items/labels columns, so each
    mapped payload byte is actually faulted in and read; the RSS samples
    bracket the release cadence and record the *live* peak.
    """

    def note(message):
        if verbose:
            print(f"[data-bench] {message}", flush=True)

    path = os.path.join(workdir, f"databench_{n_events}.col")
    result = {"n_events": int(n_events), "batch_size": int(batch_size)}

    start = time.perf_counter()
    generate_event_file(path, n_events, seed=seed)
    result["write_s"] = round(time.perf_counter() - start, 4)
    result["file_mb"] = round(os.path.getsize(path) / 2**20, 2)
    note(f"{n_events:,} events written in {result['write_s']}s "
         f"({result['file_mb']} MB)")

    peak_rss = _vm_rss_mb() or 0.0
    try:
        start = time.perf_counter()
        store = ColumnarStore.open(path)
        result["open_s"] = round(time.perf_counter() - start, 6)
        result["extents"] = len(store.extents)

        checksum = 0.0
        batches = 0
        # Sample RSS at a cadence finer than the release interval so the
        # peak between releases is actually observed, not just the low
        # point right after an madvise.
        sample_every = max(1, min(8, release_every_rows // batch_size))
        start = time.perf_counter()
        for batch in iter_store_batches(
            store, batch_size, release_every_rows=release_every_rows,
        ):
            # One reduction per column: every byte of the mapped payload
            # is read, nothing is retained.
            checksum += float(batch.users.sum(dtype=np.float64))
            checksum += float(batch.items.sum(dtype=np.float64))
            checksum += float(batch.labels.sum(dtype=np.float64))
            batches += 1
            if batches % sample_every == 0:
                rss = _vm_rss_mb()
                if rss is not None:
                    peak_rss = max(peak_rss, rss)
        result["epoch_s"] = round(time.perf_counter() - start, 4)
        result["batches"] = batches
        result["checksum"] = checksum
        store.release()
        # The loop variable still holds the final batch's views; drop it
        # or close() refuses to unmap under a live buffer export.
        if batches:
            del batch
        store.close()
    finally:
        if not keep_file and os.path.exists(path):
            os.unlink(path)

    rss = _vm_rss_mb()
    if rss is not None:
        peak_rss = max(peak_rss, rss)
    load_epoch_s = result["open_s"] + result["epoch_s"]
    result["events_per_s"] = round(n_events / load_epoch_s, 1) \
        if load_epoch_s > 0 else float("inf")
    result["peak_rss_mb"] = round(peak_rss, 1)
    note(f"{n_events:,} events: open {result['open_s']}s, epoch "
         f"{result['epoch_s']}s -> {result['events_per_s']:,.0f} ev/s, "
         f"peak RSS {result['peak_rss_mb']} MB")
    return result


def run_data_bench(event_counts=(1_000_000, 100_000_000), batch_size=65536,
                   release_every_rows=1 << 20, workdir=".", seed=0,
                   verbose=False):
    """The size sweep: every count through :func:`bench_cell`."""
    cells = [
        bench_cell(
            n_events, batch_size=batch_size,
            release_every_rows=release_every_rows, workdir=workdir,
            seed=seed, verbose=verbose,
        )
        for n_events in event_counts
    ]
    return {
        "settings": {
            "event_counts": [int(n) for n in event_counts],
            "batch_size": int(batch_size),
            "release_every_rows": int(release_every_rows),
            "seed": int(seed),
            "events_per_s_target": EVENTS_PER_S_TARGET,
            "rss_ratio_limit": RSS_RATIO_LIMIT,
        },
        "cells": cells,
    }


def check_data_bench(record):
    """Acceptance gates; returns ``{"ok": bool, "failures": [...]}``.

    The throughput gate applies to the largest cell (that is the claim:
    paper-scale files stream at memory speed); the RSS gate compares the
    largest cell's live peak to the smallest's — constant-RSS means the
    footprint must not follow the data.
    """
    failures = []
    cells = sorted(record["cells"], key=lambda cell: cell["n_events"])
    if not cells:
        return {"ok": False, "failures": ["no cells recorded"]}
    largest = cells[-1]
    if largest["events_per_s"] < EVENTS_PER_S_TARGET:
        failures.append(
            f"load+epoch throughput {largest['events_per_s']:,.0f} ev/s at "
            f"{largest['n_events']:,} events is below the "
            f"{EVENTS_PER_S_TARGET:,} target"
        )
    smallest = cells[0]
    if smallest["peak_rss_mb"] > 0 and len(cells) > 1:
        ratio = largest["peak_rss_mb"] / smallest["peak_rss_mb"]
        if ratio > RSS_RATIO_LIMIT:
            failures.append(
                f"peak RSS grew {ratio:.2f}x from {smallest['n_events']:,} "
                f"to {largest['n_events']:,} events (limit "
                f"{RSS_RATIO_LIMIT}x) — residency is following the data"
            )
    return {"ok": not failures, "failures": failures}


def render_data_bench(record):
    """Human-readable table of the size sweep."""
    lines = [
        "data-bench (write -> open -> full epoch per cell)",
        f"  batch_size={record['settings']['batch_size']} "
        f"release_every_rows={record['settings']['release_every_rows']} "
        f"seed={record['settings']['seed']}",
        "",
        f"  {'events':>13}  {'file_MB':>9}  {'write_s':>8}  {'open_s':>8}  "
        f"{'epoch_s':>8}  {'Mev/s':>8}  {'peak_MB':>8}",
    ]
    for cell in sorted(record["cells"], key=lambda c: c["n_events"]):
        lines.append(
            f"  {cell['n_events']:>13,}  {cell['file_mb']:>9.1f}  "
            f"{cell['write_s']:>8.2f}  {cell['open_s']:>8.4f}  "
            f"{cell['epoch_s']:>8.2f}  {cell['events_per_s'] / 1e6:>8.1f}  "
            f"{cell['peak_rss_mb']:>8.1f}"
        )
    verdict = check_data_bench(record)
    lines.append("")
    lines.append(
        "  acceptance: ok" if verdict["ok"]
        else "  acceptance: FAILED\n" + "\n".join(
            f"    - {failure}" for failure in verdict["failures"]
        )
    )
    return "\n".join(lines)


def write_bench_record(record, path=DEFAULT_BENCH_PATH):
    """Merge ``record`` into the data benchmark journal at ``path``."""
    return update_journal(path, "data_bench", merge_cells(
        record, lambda cell: cell["n_events"]
    ))
