"""Spans, sample statistics and provenance for the end-to-end benchmark.

The harness records a span around every call it makes into a layer of
``src/repro`` (name, start, end, the span that caused it, and the request /
window / fit id).  Spans live in memory and are written out once, when the
run ends.  Spans *inside* the program are a later issue (ROADMAP
observability item); until then a layer's self time is its span minus the
child spans the harness itself recorded.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "clock", "gc_paused", "median", "percentile",
           "summary", "peak_rss_mb", "provenance"]

clock = time.perf_counter


class Tracer:
    """An in-memory span log that costs one attribute check when off."""

    def __init__(self):
        self.enabled = False
        self.spans = []      # [name, start, end, parent index | None, ids]
        self._stack = []

    @contextmanager
    def span(self, name, **ids):
        """Time the enclosed call as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        record = [name, clock(), None, self._parent(), ids]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = clock()
            self._stack.pop()

    def record(self, name, start, end, detached=False, **ids):
        """Log a span the caller clocked itself.

        ``detached`` marks an interval that overlaps its siblings (a
        request in flight while the driver keeps working): it keeps its
        parent for causality but is left out of self-time arithmetic.
        """
        if self.enabled:
            ids = dict(ids, detached=True) if detached else ids
            self.spans.append([name, start, end, self._parent(), ids])

    def _parent(self):
        return self._stack[-1] if self._stack else None

    def seconds(self, name):
        """Durations of every span called ``name``, in recording order."""
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_seconds(self):
        """``{name: total duration minus the part child spans cover}``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, ids in self.spans:
            if parent is not None and not ids.get("detached"):
                own[parent] -= end - start
        totals = {}
        for (name, _, _, _, ids), seconds in zip(self.spans, own):
            if not ids.get("detached"):
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "columns": ["name", "start_s", "end_s", "parent", "ids"],
            "spans": [
                [name, start - origin, end - origin, parent, ids]
                for name, start, end, parent, ids in self.spans
            ],
        }
        Path(path).write_text(json.dumps(payload) + "\n")


@contextmanager
def gc_paused():
    """No cyclic-GC pass while the driver generates load.

    A generation-2 pass over the driver's heap stalls it for tens of
    milliseconds; to an open-loop generator that is a burst of late
    offers, to a closed loop a fake latency tail.  Only the load loops
    run under this — training in the driver process keeps its collector.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def median(values):
    return float(statistics.median(values))


def percentile(values, q):
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def summary(values):
    """Median, quartiles and count of a sample (quartiles as the driver
    takes them: ``statistics.quantiles(values, n=4)``)."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb(pids):
    """Sum of the processes' resident-set high-water marks (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def provenance(repo_root):
    """Where and on what a result was measured; recorded with every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None      # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            name: os.environ.get(name) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "argv": sys.argv[1:],
    }
