"""Seeded, replayable production-traffic traces.

A :class:`Trace` is what the serving tier actually faces: a totally
ordered sequence of arrival-timestamped ``(t, user, item, domain)``
requests.  :func:`generate_trace` draws one with the skew of Taobao-style
mixed-domain traffic that a uniform synthetic loop lacks (Section IV-E
serves hundreds of domains whose request mix is anything but flat):

* **Zipf domain mix** — request domains follow a Zipf-like law, so a few
  head domains dominate while tail domains trickle (the serving-side
  analogue of Tables II–IV's imbalance); user and item ids are
  heavy-tailed the same way, which is the regime the serve-side static
  cache tier is built for.
* **Poisson arrivals** — at the flat rate ``mean_qps``: each
  ``slot_seconds`` slot draws a Poisson count and spreads it uniformly
  over the slot.

Everything is derived from ``spawn_rng(seed, name, ...)`` streams, so a
trace is a pure function of its config: replays and multi-process
benchmarks all see byte-identical traffic.

:func:`trace_from_stream` adapts the drifted click stream of
:mod:`repro.online.stream` into a serving trace: event order, domain mix
and item popularity (including concept/popularity drift across windows)
come from the stream; this module only assigns Poisson arrival times.
That is the covariate-shift realism EDDA's domain-alignment analysis
argues for — the per-domain *mix* drifts, not just the volume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..utils.seeding import spawn_rng

__all__ = ["TraceConfig", "Trace", "generate_trace", "trace_from_stream"]


def _zipf_probs(n, exponent):
    """Zipf-like pmf over ``n`` ranks: p(r) ∝ (r + 1)^-exponent."""
    weights = (np.arange(n) + 1.0) ** -float(exponent)
    return weights / weights.sum()


@dataclass(frozen=True)
class TraceConfig:
    """Full recipe for a replayable traffic trace."""

    name: str = "traffic"
    n_domains: int = 4
    n_users: int = 400
    n_items: int = 200
    duration: float = 1.0            # trace horizon in seconds
    mean_qps: float = 2000.0         # time-averaged offered rate
    domain_skew: float = 1.1         # Zipf exponent over domain ranks
    user_skew: float = 1.05
    item_skew: float = 1.05
    slot_seconds: float = 0.005      # Poisson-count slot width
    seed: int = 0

    def __post_init__(self):
        if self.n_domains < 1:
            raise ValueError("need at least one domain")
        if self.duration <= 0 or self.mean_qps <= 0:
            raise ValueError("duration and mean_qps must be positive")
        if self.slot_seconds <= 0 or self.slot_seconds > self.duration:
            raise ValueError("slot_seconds must be in (0, duration]")


@dataclass(frozen=True)
class Trace:
    """An arrival-timestamped request stream (sorted by ``times``)."""

    name: str
    times: np.ndarray      # float64 seconds, non-decreasing
    users: np.ndarray      # int64
    items: np.ndarray      # int64
    domains: np.ndarray    # int64
    horizon: float         # trace duration in seconds
    n_domains: int
    n_users: int
    n_items: int
    seed: int = 0

    def __len__(self):
        return len(self.times)

    @property
    def offered_qps(self):
        """Realized time-averaged offered load."""
        if self.horizon <= 0:
            return 0.0
        return len(self.times) / self.horizon

    def head(self, n):
        """The first ``n`` requests (their original timestamps)."""
        n = min(int(n), len(self.times))
        return replace(
            self,
            times=self.times[:n], users=self.users[:n],
            items=self.items[:n], domains=self.domains[:n],
        )

    def per_domain_counts(self):
        """``{domain: request count}`` over the whole trace."""
        counts = np.bincount(self.domains, minlength=self.n_domains)
        return {int(d): int(c) for d, c in enumerate(counts)}


def generate_trace(config):
    """Materialize the trace a :class:`TraceConfig` describes."""
    n_slots = max(1, int(np.ceil(config.duration / config.slot_seconds)))
    rng = spawn_rng(config.seed, config.name, "arrivals")
    counts = rng.poisson(
        np.full(n_slots, config.mean_qps * config.slot_seconds)
    )
    total = int(counts.sum())
    starts = np.arange(n_slots) * config.slot_seconds
    times = np.repeat(starts, counts) + np.concatenate(
        [np.sort(rng.random(int(c))) * config.slot_seconds for c in counts]
    ) if total else np.empty(0)
    times = np.minimum(times, config.duration)

    mix = spawn_rng(config.seed, config.name, "mix")
    domains = mix.choice(
        config.n_domains, size=total, p=_zipf_probs(
            config.n_domains, config.domain_skew
        ),
    ).astype(np.int64)
    users = mix.choice(
        config.n_users, size=total, p=_zipf_probs(
            config.n_users, config.user_skew
        ),
    ).astype(np.int64)
    items = mix.choice(
        config.n_items, size=total, p=_zipf_probs(
            config.n_items, config.item_skew
        ),
    ).astype(np.int64)
    return Trace(
        name=config.name,
        times=np.asarray(times, dtype=np.float64),
        users=users, items=items, domains=domains,
        horizon=float(config.duration),
        n_domains=config.n_domains,
        n_users=config.n_users,
        n_items=config.n_items,
        seed=config.seed,
    )


def trace_from_stream(stream, mean_qps, windows=None, seed=0):
    """Replay a drifted :class:`~repro.online.stream.EventStream` as a trace.

    Event *content* (order, users, items, domains — including the Zipf
    rate skew and the concept/popularity drift across micro-epochs) comes
    verbatim from the stream; only arrival *times* are assigned here, as
    a Poisson process at ``mean_qps`` (seeded exponential gaps).  The
    returned trace therefore puts the serving tier under the exact
    traffic distribution the continual-learning pipeline trained against.

    ``stream`` may be a live :class:`~repro.online.stream.EventStream` or
    a recorded :class:`~repro.online.stream.StreamArchive` — both expose
    ``config`` and ``window(i)``, and the arrival RNG is seeded from the
    config, so a trace built from an archive is byte-identical to one
    built from the live stream it recorded.  When the archive holds only
    a subset of windows, the default replays exactly those.
    """
    if mean_qps <= 0:
        raise ValueError("mean_qps must be positive")
    config = stream.config
    if windows is None:
        indices = getattr(stream, "window_indices", None)
        if indices is None:
            indices = range(config.n_windows)
    else:
        indices = windows
    users, items, domains = [], [], []
    for index in indices:
        window = stream.window(index)
        users.append(window.users)
        items.append(window.items)
        domains.append(window.domains)
    users = np.concatenate(users).astype(np.int64)
    items = np.concatenate(items).astype(np.int64)
    domains = np.concatenate(domains).astype(np.int64)
    rng = spawn_rng(seed, config.name, "trace-arrivals")
    gaps = rng.exponential(1.0 / float(mean_qps), size=len(users))
    times = np.cumsum(gaps)
    return Trace(
        name=f"{config.name}_replay",
        times=np.asarray(times, dtype=np.float64),
        users=users, items=items, domains=domains,
        horizon=float(times[-1]) if len(times) else 0.0,
        n_domains=config.n_domains,
        n_users=config.n_users,
        n_items=config.n_items,
        seed=seed,
    )
