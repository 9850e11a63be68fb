"""Per-op wall-time and allocation profiling for the training hot path.

The instrumented ops (embedding forward/backward, fused kernels, optimizer
steps, training steps) call :func:`tick`/:func:`tock`, which are free when
no profile is active: ``tick`` returns ``None`` after a single list check,
and ``tock`` returns immediately on ``None``.

Usage::

    from repro.utils import profiling

    with profiling.profile() as prof:
        framework.fit(model, dataset, config)
    print(prof.render())

A :class:`Profile` is itself a context manager, so callers that need to
hold onto it (e.g. ``experiments.runner.run_method(..., profiler=prof)``)
can create it first and enter it around the expensive region.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

__all__ = [
    "OpStats",
    "Profile",
    "profile",
    "is_active",
    "tick",
    "tock",
    "record",
    "count",
    "observe",
    "percentile",
    "tape_breakdown",
    "render_tape_breakdown",
    "step_speedup",
]

# Stack of active profiles; every instrumented op reports to all of them so
# profiles can nest (e.g. a whole-run profile around a per-epoch one).
_STACK = []


@dataclass
class OpStats:
    """Aggregated counters for one named operation."""

    calls: int = 0
    seconds: float = 0.0
    bytes_allocated: int = 0

    @property
    def mean_seconds(self):
        return self.seconds / self.calls if self.calls else 0.0


class Profile:
    """A collection of per-op counters gathered while the profile is active."""

    def __init__(self):
        self.ops = {}
        # Raw per-event sample series (e.g. serving request latencies):
        # unlike ``ops`` these keep every observation so tail percentiles
        # (p95/p99) can be computed, not just totals and means.
        self.series = {}

    def __enter__(self):
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.remove(self)
        return False

    def add(self, name, seconds, nbytes=0):
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats()
        stats.calls += 1
        stats.seconds += seconds
        stats.bytes_allocated += nbytes

    def add_count(self, name, n=1, nbytes=0):
        """Record ``n`` occurrences of a counted (untimed) event."""
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats()
        stats.calls += n
        stats.bytes_allocated += nbytes

    def observe(self, name, value):
        """Append one raw sample to the ``name`` series."""
        self.series.setdefault(name, []).append(float(value))

    def total_seconds(self):
        return sum(stats.seconds for stats in self.ops.values())

    def as_dict(self):
        """JSON-friendly summary, sorted by total time descending."""
        return {
            name: {
                "calls": stats.calls,
                "seconds": stats.seconds,
                "mean_seconds": stats.mean_seconds,
                "bytes_allocated": stats.bytes_allocated,
            }
            for name, stats in sorted(
                self.ops.items(), key=lambda kv: -kv[1].seconds
            )
        }

    def render(self, title="Profile"):
        """Human-readable table of the collected counters."""
        from .tables import format_table

        rows = [
            [
                name,
                str(stats.calls),
                f"{stats.seconds * 1e3:.2f}",
                f"{stats.mean_seconds * 1e6:.1f}",
                f"{stats.bytes_allocated / 1e6:.2f}",
            ]
            for name, stats in sorted(
                self.ops.items(), key=lambda kv: -kv[1].seconds
            )
        ]
        return format_table(
            ["Op", "Calls", "Total ms", "Mean µs", "Alloc MB"], rows, title=title
        )


@contextlib.contextmanager
def profile():
    """Activate a fresh :class:`Profile` for the enclosed block."""
    prof = Profile()
    with prof:
        yield prof


def is_active():
    """Whether any profile is currently collecting."""
    return bool(_STACK)


def tick():
    """Start a timing; returns ``None`` (free) when profiling is off."""
    return time.perf_counter() if _STACK else None


def tock(name, start, nbytes=0):
    """Finish a timing started by :func:`tick` and record it."""
    if start is None:
        return
    elapsed = time.perf_counter() - start
    for prof in _STACK:
        prof.add(name, elapsed, nbytes)


def record(name, seconds, nbytes=0):
    """Record an externally measured duration under ``name``."""
    for prof in _STACK:
        prof.add(name, seconds, nbytes)


def count(name, n=1, nbytes=0):
    """Count an event (no timing) — e.g. graph diagnostics such as
    ``sparse.densify``; free (one list check) when no profile is active."""
    if not _STACK:
        return
    for prof in _STACK:
        prof.add_count(name, n, nbytes)


def observe(name, value):
    """Record one raw sample (e.g. a request latency) into active profiles.

    Samples accumulate in :attr:`Profile.series` so tail statistics survive
    aggregation; free (one list check) when no profile is active.
    """
    if not _STACK:
        return
    for prof in _STACK:
        prof.observe(name, value)


# ----------------------------------------------------------------------
# Compiled-vs-eager aggregation
# ----------------------------------------------------------------------
# The tape replay times every kernel under ``tape.fwd.<kind>`` /
# ``tape.bwd.<kind>`` (plus ``optim.step``), so a profiled compiled run
# reports where time goes *without* re-enabling eager Python dispatch.
# The helpers below fold those flat counters into per-kind rows and
# compare a compiled profile against an eager one.

_TAPE_FWD = "tape.fwd."
_TAPE_BWD = "tape.bwd."


def tape_breakdown(prof):
    """Per-kind replay timing aggregated from a profile's tape counters.

    Returns ``{kind: {"fwd_calls", "bwd_calls", "fwd_seconds",
    "bwd_seconds", "seconds", "share"}}`` where ``share`` is the kind's
    fraction of all tape time (0.0 when no tape counters were recorded).
    """
    rows = {}
    for name, stats in prof.ops.items():
        if name.startswith(_TAPE_FWD):
            kind, side = name[len(_TAPE_FWD):], "fwd"
        elif name.startswith(_TAPE_BWD):
            kind, side = name[len(_TAPE_BWD):], "bwd"
        else:
            continue
        row = rows.setdefault(kind, {
            "fwd_calls": 0, "bwd_calls": 0,
            "fwd_seconds": 0.0, "bwd_seconds": 0.0,
        })
        row[f"{side}_calls"] += stats.calls
        row[f"{side}_seconds"] += stats.seconds
    total = sum(r["fwd_seconds"] + r["bwd_seconds"] for r in rows.values())
    for row in rows.values():
        row["seconds"] = row["fwd_seconds"] + row["bwd_seconds"]
        row["share"] = row["seconds"] / total if total else 0.0
    return dict(sorted(rows.items(), key=lambda kv: -kv[1]["seconds"]))


def render_tape_breakdown(prof, title="Tape replay breakdown"):
    """Human-readable per-kind table of a compiled run's replay time."""
    from .tables import format_table

    rows = [
        [
            kind,
            str(row["fwd_calls"]),
            f"{row['fwd_seconds'] * 1e3:.2f}",
            f"{row['bwd_seconds'] * 1e3:.2f}",
            f"{row['share'] * 100:.1f}%",
        ]
        for kind, row in tape_breakdown(prof).items()
    ]
    return format_table(
        ["Kind", "Fwd calls", "Fwd ms", "Bwd ms", "Share"], rows, title=title
    )


def step_speedup(eager_prof, compiled_prof, name="train.step"):
    """Compare mean ``name`` timings of an eager and a compiled profile.

    Both profiles must have timed ``name`` (the training loops do);
    returns mean seconds per step for each side, the speedup ratio and
    the compiled side's per-kind replay breakdown.
    """
    eager = eager_prof.ops.get(name)
    compiled = compiled_prof.ops.get(name)
    if eager is None or compiled is None or not eager.calls or not compiled.calls:
        raise KeyError(f"both profiles must record {name!r} timings")
    eager_mean = eager.mean_seconds
    compiled_mean = compiled.mean_seconds
    return {
        "op": name,
        "eager_mean_seconds": eager_mean,
        "compiled_mean_seconds": compiled_mean,
        "speedup": eager_mean / compiled_mean if compiled_mean else float("inf"),
        "breakdown": tape_breakdown(compiled_prof),
    }


def percentile(samples, q, method="linear"):
    """Percentile of a sample list (``q`` in [0, 1]).

    The default interpolates linearly between the two order statistics
    bracketing rank ``q * (n - 1)`` (numpy's ``linear`` convention), so
    tail estimates like p99 move smoothly as samples accumulate instead
    of jumping between observed values at small ``n``.

    ``method="nearest"`` keeps the historical nearest-rank behavior —
    the result is always one of the observed samples — for consumers
    that need an actual witness value rather than a smooth estimate.
    """
    if not samples:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    ordered = sorted(samples)
    n = len(ordered)
    if method == "nearest":
        rank = min(n - 1, max(0, int(round(q * n + 0.5)) - 1))
        return ordered[rank]
    if method != "linear":
        raise ValueError(f"unknown percentile method {method!r}")
    position = q * (n - 1)
    lower = int(position)
    upper = min(lower + 1, n - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction
