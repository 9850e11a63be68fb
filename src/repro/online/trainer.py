"""Incremental MAMDR updates over stream windows.

The :class:`IncrementalTrainer` owns a live
:class:`~repro.core.param_space.DomainParameterSpace` and advances it one
micro-epoch at a time: warm-start θ_S/θ_i from the latest published
snapshot, ingest a new window, run DN on the shared parameters and DR on
every domain's delta, and hand the resulting candidate states
``Θ_i = θ_S + θ_i`` to the publication gate.

Two ingredients fight the failure modes of naive online fine-tuning:

* a **sliding replay buffer** per domain — each update trains on the last
  ``replay_capacity`` interactions, not just the newest window, so sparse
  domains (a handful of events per micro-epoch) do not catastrophically
  forget what little they know;
* a **temporal holdout** — the most recent slice of each window, split
  off by watermark through :func:`repro.data.splits.temporal_split`, is
  *never* trained on and becomes the gate's held-out recent window.

The shared-parameter update runs either in-process (``backend="local"``,
the framework path) or on the fault-tolerant PS-Worker runtime
(``backend="cluster"``, the Section IV-E path); DR always runs driver-side
on the live space, mirroring :class:`~repro.distributed.cluster.
SimulatedCluster`'s own DR placement.

An update is a pure function of ``(space, window dataset, update key)`` —
``update(key)`` derives its RNG from ``spawn_rng(seed, "online",
"update", key)`` and builds a fresh inner optimizer, so an incremental
step from a snapshot is byte-identical to the same step taken offline on
the same data (the warm-start parity test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mamdr import mamdr_epoch
from ..core.param_space import DomainParameterSpace
from ..core.regularization import regularize_groups
from ..core.trainer import make_inner_optimizer
from ..data.schema import Domain, InteractionTable, MultiDomainDataset
from ..data.splits import temporal_split
from ..nn.state import clone_state, state_sub
from ..utils import profiling
from ..utils.seeding import spawn_rng, stable_seed

__all__ = ["ReplayBuffer", "IncrementalTrainer", "OnlineUpdate",
           "space_from_snapshot"]


class ReplayBuffer:
    """Per-domain sliding window over the most recent interactions.

    Rows arrive in event order and the buffer keeps the newest
    ``capacity`` per domain — a deterministic sliding window, not a
    sampled reservoir, so replays are exactly reproducible.
    """

    def __init__(self, capacity=1200):
        if capacity < 1:
            raise ValueError("replay capacity must be positive")
        self.capacity = capacity
        self._tables = {}

    def extend(self, domain, table):
        """Append ``table``'s rows (already time-ordered) for ``domain``."""
        domain = int(domain)
        existing = self._tables.get(domain)
        merged = (
            table if existing is None
            else InteractionTable.concatenate([existing, table])
        )
        if len(merged) > self.capacity:
            merged = merged.subset(
                np.arange(len(merged) - self.capacity, len(merged))
            )
        self._tables[domain] = merged
        return merged

    def table(self, domain):
        table = self._tables.get(int(domain))
        if table is None:
            raise KeyError(f"no replay data for domain {domain}")
        return table

    def domains(self):
        return sorted(self._tables)

    def size(self, domain):
        table = self._tables.get(int(domain))
        return 0 if table is None else len(table)


def space_from_snapshot(model, snapshot):
    """Rebuild a :class:`DomainParameterSpace` from a published snapshot.

    ``θ_S`` is the snapshot's default state and each ``θ_i`` is recovered
    as ``Θ_i − θ_S``, so ``space.combined(i)`` reproduces the served
    states exactly (the subtraction-then-addition round-trips bitwise for
    the zero-delta entries and is exact for entries published as
    ``θ_S + θ_i`` from float64 states).  Domains published with a shared
    state object (a clustered space's tail) compute the subtraction once.
    """
    if snapshot.default_state is None:
        raise ValueError(
            "snapshot has no default (shared) state to warm-start from"
        )
    space = DomainParameterSpace(model, n_domains=len(snapshot.states))
    space.set_shared(snapshot.default_state)
    memo = {}
    for domain in snapshot.domains:
        state = snapshot.state_for(domain)
        delta = memo.get(id(state))
        if delta is None:
            delta = state_sub(state, snapshot.default_state)
            memo[id(state)] = delta
        space.set_delta(domain, delta)
    return space


@dataclass(frozen=True)
class OnlineUpdate:
    """The result of one incremental update."""

    key: object
    dataset: object
    states: dict          # {domain: Θ_i} candidate serving states
    default_state: dict   # θ_S after the update (cloned)

    @property
    def domains(self):
        return sorted(self.states)


class IncrementalTrainer:
    """Advances a MAMDR parameter space one stream window at a time."""

    def __init__(self, model, n_domains, config, *, backend="local",
                 replica_factory=None, n_workers=2, replay_capacity=1200,
                 holdout_frac=0.25, holdout_capacity=200,
                 dataset_name="online", n_users=None, n_items=None, seed=0):
        if backend not in ("local", "cluster"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "cluster" and replica_factory is None:
            raise ValueError(
                "backend='cluster' needs replica_factory to build per-worker "
                "model replicas"
            )
        if not 0.0 < holdout_frac < 1.0:
            raise ValueError("holdout_frac must be in (0, 1)")
        self.model = model
        self.n_domains = n_domains
        self.config = config
        self.backend = backend
        self.replica_factory = replica_factory
        self.n_workers = n_workers
        self.holdout_frac = holdout_frac
        self.holdout_buffer = ReplayBuffer(holdout_capacity)
        self.dataset_name = dataset_name
        self.n_users = n_users
        self.n_items = n_items
        self.seed = seed
        self.space = DomainParameterSpace(model, n_domains)
        self.replay = ReplayBuffer(replay_capacity)
        self.holdouts = {}        # domain -> newest two-class holdout table
        self.holdout_watermarks = {}
        self.ingested_events = 0
        self.last_watermark = None

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def warm_start(self, snapshot):
        """Adopt θ_S / {θ_i} from a published :class:`ModelSnapshot`."""
        self.space = space_from_snapshot(self.model, snapshot)
        self.model.load_state_dict(self.space.shared)
        return self.space

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, window):
        """Fold one :class:`StreamWindow` into replay + holdout storage.

        Per domain, the window's rows are split by watermark: the earliest
        ``1 - holdout_frac`` go to the replay buffer (trainable), the most
        recent slice joins the **holdout buffer** — its own sliding window
        (capped at ``holdout_capacity``) that accumulates the newest
        held-out rows across micro-epochs.  Holdout rows never enter the
        replay buffer, so the gate's window is untrained-on by
        construction; accumulating a few micro-epochs' worth keeps the
        gate's AUC comparison above the noise floor of a single sparse
        window.  The scoreable view in :attr:`holdouts` only advances when
        the accumulated table has both label classes.
        """
        counts = {}
        for domain, (table, times) in window.per_domain().items():
            train, holdout, cutoff = temporal_split(
                table, times, holdout_frac=self.holdout_frac
            )
            self.replay.extend(domain, train)
            counts[domain] = len(table)
            if len(holdout) == 0:
                continue
            merged = self.holdout_buffer.extend(domain, holdout)
            if len(np.unique(merged.labels)) == 2:
                self.holdouts[domain] = merged
                self.holdout_watermarks[domain] = int(cutoff)
        self.ingested_events += len(window)
        self.last_watermark = window.watermark
        profiling.count("online.events_ingested", n=len(window))
        return counts

    def ingest_archive(self, archive, indices=None, release_every=8):
        """Replay archived micro-epochs through :meth:`ingest`.

        ``archive`` is a :class:`~repro.online.stream.StreamArchive` (or
        any stream presenting ``window(i)``); windows are rebuilt as
        zero-copy column views, and ``per_domain``'s mask-gather copies
        exactly the rows each buffer keeps — the replay/holdout state
        owns its memory, so the archive can be released or closed
        afterwards.  Every ``release_every`` windows the archive's
        resident pages are returned to the OS, keeping the replay's RSS
        flat no matter how long the recorded stream is.  Returns
        ``{window_index: {domain: events}}``.
        """
        if indices is None:
            indices = getattr(
                archive, "window_indices",
                range(archive.config.n_windows),
            )
        release = getattr(archive, "release", None)
        counts = {}
        for position, index in enumerate(indices):
            counts[int(index)] = self.ingest(archive.window(index))
            if release is not None and release_every and \
                    (position + 1) % release_every == 0:
                release()
        if release is not None:
            release()
        return counts

    def window_dataset(self):
        """The current training view: replay buffers + temporal holdouts.

        ``val`` and ``test`` are both the gate holdout — evaluation during
        incremental training *is* the held-out recent window.
        """
        domains = []
        for index in range(self.n_domains):
            if self.replay.size(index) == 0:
                raise ValueError(
                    f"domain {index} has no replay data yet; ingest more "
                    "bootstrap windows before updating"
                )
            holdout = self.holdouts.get(index)
            if holdout is None:
                raise ValueError(
                    f"domain {index} has no two-class holdout yet; ingest "
                    "more bootstrap windows before updating"
                )
            domains.append(Domain(
                name=f"S{index}", index=index,
                train=self.replay.table(index),
                val=holdout, test=holdout,
            ))
        return MultiDomainDataset(
            f"{self.dataset_name}@{self.last_watermark}", domains,
            n_users=self.n_users, n_items=self.n_items,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, key):
        """One incremental DN+DR pass over the current window dataset.

        ``key`` namespaces the update's RNG (use the window index); the
        same space, data and key produce a byte-identical update.
        """
        dataset = self.window_dataset()
        view, groups = self.space.training_plan(dataset)
        rng = spawn_rng(self.seed, "online", "update", key)
        start = profiling.tick()
        if self.backend == "local":
            mamdr_epoch(
                self.model, view, groups, self.space, self.config, rng,
                make_inner_optimizer(self.model, self.config),
            )
        else:
            # Only the θ_S update moves to the cluster; DR stays
            # driver-side on the live space.
            self.space.set_shared(self._update_shared_cluster(view, key))
            regularize_groups(
                self.model, view, groups, self.space, self.config, rng
            )
        profiling.tock("online.update", start)
        states = self.space.all_combined()
        return OnlineUpdate(
            key=key, dataset=dataset, states=states,
            default_state=clone_state(self.space.shared),
        )

    def _update_shared_cluster(self, dataset, key):
        """DN via the fault-tolerant PS-Worker runtime (Section IV-E)."""
        from ..distributed import SimulatedCluster

        shared = clone_state(self.space.shared)

        def factory(worker_id):
            replica = self.replica_factory()
            replica.load_state_dict(shared)
            return replica

        cluster = SimulatedCluster(
            n_workers=self.n_workers, mode="sync", heartbeat_timeout=None,
        )
        bank = cluster.run(
            factory, dataset, self.config.updated(epochs=self.config.dn_rounds),
            seed=stable_seed(self.seed, "online", "cluster", key),
            use_dr=False,
        )
        return bank.model.state_dict()
