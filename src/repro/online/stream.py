"""Time-ordered click-stream simulator with seeded concept drift.

The production story of Section IV-E is continual: Taobao's click logs
arrive as a stream, models are retrained on fresh windows and republished.
This module turns the latent-factor generator of
:mod:`repro.data.synthetic` into that stream: a totally ordered sequence of
``(time, user, item, domain, label)`` click events, chunked into
**micro-epochs** (windows) with watermarks.

Three phenomena the offline generator cannot express are modelled here:

* **Per-domain rate skew** — event domains are drawn from a Zipf-like
  distribution, so a few hot domains dominate the stream while sparse
  domains trickle (the arrival-rate analogue of Tables II-IV's imbalance).
* **Concept drift** — the item latent factors rotate over time through a
  seeded drift rotation ``D(s) = sqrt(1 - s^2) I + s Q`` whose strength
  ``s`` grows with the stream clock.  A model fit at time 0 faces an
  increasingly alien preference structure, which is exactly what motivates
  incremental retraining (and what adaptive MDR work such as AdaptDHM
  targets).  Drift is piecewise-constant per micro-epoch so windows can be
  generated independently.  The same rotation feeds the *traffic*
  distribution: item impression weights follow a popularity projection of
  the drifted factors, so which items get shown shifts alongside which
  items get clicked — giving the drift monitor's population-stability
  score a genuine covariate-shift signal, not just label drift.
* **Stationary label calibration** — per-domain click thresholds are
  calibrated once at time 0, so drift changes the *realized* CTR over time
  and the publication gate's calibration guard measures something real.

Determinism: every window is generated by an RNG namespaced on
``(seed, name, "window", index)``, so ``window(i)`` is byte-identical
regardless of how many other windows were generated before it — replays
and resumed pipelines see the same stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..data.columnar import (
    STREAM_COLUMNS,
    ColumnarStore,
    ColumnarWriter,
    SerializationError,
)
from ..data.schema import Domain, InteractionTable, MultiDomainDataset
from ..utils import profiling
from ..utils.seeding import spawn_rng

__all__ = ["StreamConfig", "StreamWindow", "EventStream", "write_stream",
           "StreamArchive"]


@dataclass(frozen=True)
class StreamConfig:
    """Full recipe for a drifted multi-domain event stream."""

    name: str = "online_sim"
    n_domains: int = 4
    n_users: int = 300
    n_items: int = 160
    latent_dim: int = 8
    n_windows: int = 8
    window_events: int = 480      # events per micro-epoch, all domains
    rate_skew: float = 1.1        # Zipf exponent over domain arrival rates
    conflict: float = 0.5         # cross-domain preference conflict (as offline)
    drift_rate: float = 0.12      # drift strength gained per micro-epoch
    max_drift: float = 0.95
    interaction_scale: float = 2.5
    popularity_strength: float = 0.5
    domain_popularity_strength: float = 0.5
    label_noise: float = 0.75     # gaussian noise added before thresholding
    target_ctr: float = 0.3       # per-domain positive rate at time 0
    pool_frac: float = 0.5        # fraction of the universe each domain touches
    popularity_drift: float = 2.0  # how strongly item traffic follows drift
    calibration_samples: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.n_domains < 2:
            raise ValueError("need at least two domains for an MDR stream")
        if self.n_windows < 1 or self.window_events < self.n_domains * 10:
            raise ValueError(
                "need >= 1 window and >= 10 events per domain per window"
            )
        if not 0.0 <= self.max_drift < 1.0:
            raise ValueError("max_drift must be in [0, 1)")
        if self.drift_rate < 0.0:
            raise ValueError("drift_rate must be >= 0")
        if not 0.0 < self.target_ctr < 1.0:
            raise ValueError("target_ctr must be in (0, 1)")


@dataclass(frozen=True)
class StreamWindow:
    """One micro-epoch of the stream: a time-contiguous event chunk.

    ``times`` is the global event clock (strictly increasing across the
    whole stream); ``watermark`` is the largest event time contained, i.e.
    the point up to which this window's data is complete.
    """

    index: int
    start_time: int
    watermark: int
    drift: float
    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    times: np.ndarray

    def __len__(self):
        return len(self.users)

    def per_domain(self):
        """``{domain: (InteractionTable, times)}`` preserving event order."""
        out = {}
        for domain in np.unique(self.domains):
            mask = self.domains == domain
            table = InteractionTable(
                self.users[mask], self.items[mask], self.labels[mask]
            )
            out[int(domain)] = (table, self.times[mask])
        return out

    def positive_rate(self, domain=None):
        """Realized CTR of the window (optionally one domain's)."""
        labels = (
            self.labels if domain is None
            else self.labels[self.domains == domain]
        )
        if len(labels) == 0:
            raise ValueError(f"window has no events for domain {domain}")
        return float(labels.mean())


def _rate_probs(n_domains, exponent):
    weights = (np.arange(n_domains) + 1.0) ** -exponent
    return weights / weights.sum()


def _rotation(rng, dim):
    gaussian = rng.normal(size=(dim, dim))
    rotation, _ = np.linalg.qr(gaussian)
    return rotation


def _blend(dim, strength, rotation):
    """``sqrt(1 - s^2) I + s Q`` — identity at 0, full rotation at 1."""
    if strength == 0.0:
        return np.eye(dim)
    return np.sqrt(1.0 - strength ** 2) * np.eye(dim) + strength * rotation


class EventStream:
    """Deterministic drifted event stream over a fixed entity universe.

    The ground truth (latent factors, per-domain preference transforms,
    pools, popularity profiles, label thresholds) is drawn once from the
    config seed; windows are then pure functions of their index.
    """

    def __init__(self, config):
        self.config = config
        rng = spawn_rng(config.seed, config.name, "latent")
        scale = 1.0 / np.sqrt(config.latent_dim)
        self.user_factors = rng.normal(
            0.0, scale, size=(config.n_users, config.latent_dim)
        )
        self.item_factors = rng.normal(
            0.0, scale, size=(config.n_items, config.latent_dim)
        )
        self.item_popularity = rng.normal(
            0.0, config.popularity_strength, size=config.n_items
        )
        # Fixed projection direction for traffic weights: impression logits
        # follow the *drifted* item factors along this axis, so the traffic
        # distribution rotates together with the preference structure.
        self.popularity_direction = rng.normal(size=config.latent_dim)
        self.drift_rotation = _rotation(
            spawn_rng(config.seed, config.name, "drift"), config.latent_dim
        )
        self.rate_probs = _rate_probs(config.n_domains, config.rate_skew)

        self.user_pools = []
        self.item_pools = []
        self.transforms = []
        self.domain_popularity = []
        self.domain_bias = []
        for domain in range(config.n_domains):
            drng = spawn_rng(config.seed, config.name, "domain", domain)
            self.user_pools.append(drng.choice(
                config.n_users,
                size=max(20, int(config.n_users * config.pool_frac)),
                replace=False,
            ))
            self.item_pools.append(drng.choice(
                config.n_items,
                size=max(20, int(config.n_items * config.pool_frac)),
                replace=False,
            ))
            self.transforms.append(_blend(
                config.latent_dim, config.conflict,
                _rotation(drng, config.latent_dim),
            ))
            self.domain_popularity.append(drng.normal(
                0.0, config.domain_popularity_strength, size=config.n_items
            ))
            self.domain_bias.append(drng.normal(0.0, 0.1))
        self.thresholds = self._calibrate_thresholds()

    # ------------------------------------------------------------------
    # Ground-truth scoring
    # ------------------------------------------------------------------
    def drift_level(self, window_index):
        """Drift strength ``s`` in effect during ``window_index``."""
        return min(self.config.max_drift,
                   self.config.drift_rate * window_index)

    def item_probs(self, domain, drift):
        """Impression probabilities over ``domain``'s item pool at ``drift``.

        Softmax of static popularity plus a drift-following projection of
        the item factors; identical to the day-0 distribution at drift 0.
        """
        pool = self.item_pools[domain]
        drifted = self.item_factors[pool] @ _blend(
            self.config.latent_dim, drift, self.drift_rotation
        ).T
        logits = (
            self.item_popularity[pool]
            + self.domain_popularity[domain][pool]
            + self.config.popularity_drift
            * (drifted @ self.popularity_direction)
        )
        logits = logits - logits.max()
        weights = np.exp(logits)
        return weights / weights.sum()

    def affinity(self, users, items, domains, drift):
        """Ground-truth affinity under drift level ``drift`` (vectorized)."""
        drifted = self.item_factors @ _blend(
            self.config.latent_dim, drift, self.drift_rotation
        ).T
        scores = np.empty(len(users), dtype=np.float64)
        for domain in np.unique(domains):
            mask = domains == domain
            projected = drifted[items[mask]] @ self.transforms[domain].T
            interaction = np.einsum(
                "ij,ij->i", self.user_factors[users[mask]], projected
            )
            scores[mask] = (
                self.config.interaction_scale * interaction
                + self.item_popularity[items[mask]]
                + self.domain_popularity[domain][items[mask]]
                + self.domain_bias[domain]
            )
        return scores

    def _calibrate_thresholds(self):
        """Per-domain click thresholds fixed at time 0 (see module doc)."""
        rng = spawn_rng(self.config.seed, self.config.name, "calibration")
        thresholds = []
        for domain in range(self.config.n_domains):
            users = rng.choice(self.user_pools[domain],
                               size=self.config.calibration_samples)
            items = rng.choice(self.item_pools[domain],
                               size=self.config.calibration_samples,
                               p=self.item_probs(domain, 0.0))
            scores = self.affinity(
                users, items, np.full(len(users), domain), drift=0.0
            )
            thresholds.append(float(np.quantile(
                scores, 1.0 - self.config.target_ctr
            )))
        return thresholds

    # ------------------------------------------------------------------
    # Window generation
    # ------------------------------------------------------------------
    def window(self, index):
        """Generate micro-epoch ``index`` (independent of other windows)."""
        config = self.config
        if not 0 <= index < config.n_windows:
            raise IndexError(
                f"window {index} outside stream of {config.n_windows}"
            )
        rng = spawn_rng(config.seed, config.name, "window", index)
        n = config.window_events
        start = index * n
        times = start + np.arange(n, dtype=np.int64)
        domains = rng.choice(config.n_domains, size=n, p=self.rate_probs)
        drift = self.drift_level(index)
        users = np.empty(n, dtype=np.int64)
        items = np.empty(n, dtype=np.int64)
        for domain in np.unique(domains):
            mask = domains == domain
            count = int(mask.sum())
            users[mask] = rng.choice(self.user_pools[domain], size=count)
            items[mask] = rng.choice(self.item_pools[domain], size=count,
                                     p=self.item_probs(domain, drift))
        scores = self.affinity(users, items, domains, drift)
        noisy = scores + rng.normal(0.0, config.label_noise, size=n)
        labels = (
            noisy > np.asarray(self.thresholds)[domains]
        ).astype(np.float64)
        profiling.count("online.events_generated", n=n)
        return StreamWindow(
            index=index,
            start_time=int(start),
            watermark=int(times[-1]),
            drift=drift,
            users=users,
            items=items,
            labels=labels,
            domains=domains.astype(np.int64),
            times=times,
        )

    def windows(self):
        """Iterate over all micro-epochs in stream order."""
        for index in range(self.config.n_windows):
            yield self.window(index)

    # ------------------------------------------------------------------
    # Model-building support
    # ------------------------------------------------------------------
    def skeleton_dataset(self):
        """An empty :class:`MultiDomainDataset` with this stream's shape.

        Carries the entity-universe dimensions and domain count that
        ``build_model`` needs; its tables are empty — training data comes
        from the stream, not from here.
        """
        empty = InteractionTable.concatenate([])
        domains = [
            Domain(
                name=f"S{index}", index=index,
                train=empty, val=empty, test=empty,
                user_pool=self.user_pools[index],
                item_pool=self.item_pools[index],
            )
            for index in range(self.config.n_domains)
        ]
        return MultiDomainDataset(
            f"{self.config.name}_skeleton", domains,
            n_users=self.config.n_users, n_items=self.config.n_items,
        )


# ----------------------------------------------------------------------
# Columnar stream archives
# ----------------------------------------------------------------------
def write_stream(path, stream, windows=None, chunk_rows=1 << 20):
    """Archive a stream's micro-epochs to one columnar file.

    Each window becomes one extent (``meta`` carries index, start_time,
    watermark and drift), so a :class:`StreamArchive` can rebuild any
    ``window(i)`` as zero-copy column slices.  The full
    :class:`StreamConfig` is embedded in the file's metadata —
    ``StreamConfig`` is all primitives, so it JSON round-trips exactly
    and the archive presents the same ``config`` surface as the live
    stream.  ``windows`` restricts archival to the given indices (default
    all); event times are stored as int64, because float32 cannot
    represent event clocks past 2^24 exactly.
    """
    indices = list(range(stream.config.n_windows)) if windows is None \
        else list(windows)
    with ColumnarWriter(
        path, STREAM_COLUMNS, kind="stream", name=stream.config.name,
        n_users=stream.config.n_users, n_items=stream.config.n_items,
        meta={"stream_config": asdict(stream.config),
              "window_indices": indices},
    ) as writer:
        for index in indices:
            window = stream.window(index)
            writer.new_extent(
                index=window.index, start_time=window.start_time,
                watermark=window.watermark, drift=window.drift,
            )
            for start in range(0, len(window), chunk_rows):
                stop = min(start + chunk_rows, len(window))
                writer.append(
                    users=window.users[start:stop],
                    items=window.items[start:stop],
                    labels=window.labels[start:stop],
                    domains=window.domains[start:stop],
                    times=window.times[start:stop],
                )
    return path


class StreamArchive:
    """A recorded event stream replayed from a columnar file.

    Presents the :class:`EventStream` read surface — ``config``,
    ``window(i)``, ``windows()`` — so stream consumers
    (:func:`repro.traffic.tracegen.trace_from_stream`, the incremental
    trainer's ingest loop, drift monitors) run on an archive without
    modification.  Each ``window(i)`` is rebuilt from the file's extent
    ``i`` as zero-copy column views: O(1) regardless of stream length,
    and :meth:`release` keeps replay RSS flat.
    """

    def __init__(self, store):
        if store.kind != "stream":
            raise SerializationError(
                f"{getattr(store, 'path', store.name)!r} holds a "
                f"{store.kind!r} store, not a stream archive"
            )
        self.store = store
        self.config = StreamConfig(**store.meta["stream_config"])
        self._extent_by_index = {
            int(extent.meta["index"]): position
            for position, extent in enumerate(store.extents)
        }

    @classmethod
    def open(cls, path, verify=False):
        return cls(ColumnarStore.open(path, verify=verify))

    @property
    def window_indices(self):
        """Archived window indices, in file order."""
        return [int(extent.meta["index"]) for extent in self.store.extents]

    def window(self, index):
        """Rebuild micro-epoch ``index`` from its extent (zero-copy)."""
        position = self._extent_by_index.get(int(index))
        if position is None:
            raise IndexError(
                f"window {index} is not archived in {self.store.name!r} "
                f"(available: {self.window_indices})"
            )
        extent = self.store.extents[position]
        start, stop = extent.start, extent.stop
        return StreamWindow(
            index=int(extent.meta["index"]),
            start_time=int(extent.meta["start_time"]),
            watermark=int(extent.meta["watermark"]),
            drift=float(extent.meta["drift"]),
            users=self.store.columns["users"][start:stop],
            items=self.store.columns["items"][start:stop],
            labels=self.store.columns["labels"][start:stop],
            domains=self.store.columns["domains"][start:stop],
            times=self.store.columns["times"][start:stop],
        )

    def windows(self):
        """Iterate archived micro-epochs in file order."""
        for extent in self.store.extents:
            yield self.window(int(extent.meta["index"]))

    def release(self):
        """Drop resident payload pages (replay keeps a flat RSS)."""
        self.store.release()

    def close(self):
        self.store.close()
