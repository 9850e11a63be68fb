"""Simulated PS-Worker cluster running distributed MAMDR (Section IV-E).

``SimulatedCluster`` shards domains across workers, runs the DN inner loop
on each worker with the embedding cache, and applies outer-loop deltas on
the parameter server — all in-process and deterministic, so tests can
compare against single-process training.

Scheduling modes:

* ``sync``  — every worker pulls the same PS version, then all deltas are
  applied (classic bulk-synchronous data parallelism);
* ``async`` — workers pull-push one after another within an epoch, so later
  workers see earlier workers' updates (bounded staleness, closer to the
  production deployment).

Fault tolerance (the production story of IV-E):

* every PS↔worker interaction goes through the message transport, so a
  :class:`~repro.distributed.faults.FaultPlan` can drop, duplicate and
  delay messages or kill workers mid-epoch;
* clients retry with exponential backoff + jitter; the PS deduplicates
  pushes by request id and rejects pushes staler than ``max_staleness``;
* a heartbeat monitor evicts workers whose beats stall and greedily
  re-shards their domains onto the survivors;
* with ``checkpoint_path`` set the driver checkpoints the PS (checksummed
  archive) every ``checkpoint_every`` epochs, and :meth:`resume` restarts
  a killed run bit-for-bit from the latest checkpoint.

With no fault plan the transport collapses to in-process calls and the
sync/async trajectories are byte-identical to the pre-transport runtime.
"""

from __future__ import annotations

from ..core.param_space import DomainParameterSpace
from ..core.regularization import regularize_groups
from ..core.selection import BestTracker, PerDomainTracker, model_split_auc
from ..frameworks.base import SingleModelBank, StateBank
from ..utils import profiling
from ..utils.seeding import spawn_rng
from .checkpoint import load_checkpoint, restore_module_rngs, save_checkpoint
from .faults import WorkerCrashed
from .ps import ParameterServer
from .transport import (
    DeliveryFailed,
    DirectChannel,
    FaultyChannel,
    PSClient,
    VirtualClock,
)
from .worker import Worker, embedding_field_map, embedding_parameter_names

__all__ = ["SimulatedCluster", "shard_domains", "reassign_domains"]


def shard_domains(dataset, n_workers):
    """Greedy balanced sharding: heaviest domains to the lightest worker.

    Deterministic throughout: domains are ordered by (size desc, index
    asc) — the explicit index tie-break keeps equal-size domains stable —
    and load ties go to the lowest-indexed worker.
    """
    if n_workers <= 0:
        raise ValueError("need at least one worker")
    shards = [[] for _ in range(n_workers)]
    loads = [0] * n_workers
    by_size = sorted(dataset.domains, key=lambda d: (-len(d.train), d.index))
    for domain in by_size:
        lightest = loads.index(min(loads))
        shards[lightest].append(domain.index)
        loads[lightest] += len(domain.train)
    return shards


def reassign_domains(dataset, orphaned, workers):
    """Greedily re-shard ``orphaned`` domain indices onto ``workers``.

    Same deterministic policy as :func:`shard_domains`, but seeded with
    the survivors' *current* loads: heaviest orphan first, to the
    least-loaded worker, ties to the lower domain index / worker id.
    Mutates the workers' ``domain_indices`` in place and returns
    ``{domain_index: worker_id}``.
    """
    if not workers:
        raise RuntimeError("no surviving workers to re-shard onto")
    by_id = {worker.worker_id: worker for worker in workers}
    loads = {
        worker.worker_id: sum(
            len(dataset.domain(i).train) for i in worker.domain_indices
        )
        for worker in workers
    }
    assignments = {}
    for index in sorted(
        orphaned, key=lambda i: (-len(dataset.domain(i).train), i)
    ):
        target = min(loads, key=lambda wid: (loads[wid], wid))
        by_id[target].domain_indices.append(index)
        loads[target] += len(dataset.domain(index).train)
        assignments[index] = target
    return assignments


class SimulatedCluster:
    """Distributed MAMDR on a simulated, fault-injectable PS-Worker cluster.

    Parameters
    ----------
    n_workers, mode, outer_optimizer:
        As before: worker count, ``"sync"``/``"async"`` scheduling, and
        the server-side outer optimizer (``None`` = interpolation).
    fault_plan:
        A :class:`~repro.distributed.faults.FaultPlan`, or ``None`` for a
        fault-free run over the direct in-process channel.
    retry_policy:
        :class:`~repro.distributed.transport.RetryPolicy` for client
        retries (defaults to 6 attempts, exponential backoff + jitter).
    max_staleness:
        Bounded-staleness window for pushes, forwarded to the PS.
    heartbeat_timeout:
        Rounds without a fresh heartbeat before a worker is evicted and
        its domains re-sharded (``None`` disables eviction).
    checkpoint_path / checkpoint_every:
        When set, the driver writes a checksummed checkpoint of the PS,
        driver RNG and best-snapshot tracker every ``checkpoint_every``
        epochs; :meth:`resume` restarts from it.
    """

    def __init__(self, n_workers=4, mode="async", outer_optimizer=None,
                 fault_plan=None, retry_policy=None, max_staleness=None,
                 heartbeat_timeout=2, checkpoint_path=None,
                 checkpoint_every=1):
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_workers = n_workers
        self.mode = mode
        self.outer_optimizer = outer_optimizer
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.max_staleness = max_staleness
        self.heartbeat_timeout = heartbeat_timeout
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.ps = None
        self.workers = []
        self.clock = None
        self.crashes = []
        self.evictions = []
        self._beat_ticks = {}
        self._beat_round = {}
        self._start_round = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, model_factory, dataset, config, seed=0, use_dr=False):
        """Train on the cluster; returns a deployable model bank.

        ``model_factory(worker_id) -> model`` builds one replica per worker
        plus the driver's evaluation replica (worker_id ``"driver"``).  With
        ``use_dr=True`` the driver additionally trains per-domain specific
        deltas with DR on top of the PS shared state (full MAMDR), one
        delta per domain in a
        :class:`~repro.core.param_space.DomainParameterSpace`.
        """
        rng = spawn_rng(seed, "cluster", dataset.name)
        return self._execute(model_factory, dataset, config, rng,
                             use_dr=use_dr, start_epoch=0,
                             tracker=BestTracker())

    def resume(self, model_factory, dataset, config, use_dr=False,
               checkpoint_path=None):
        """Restart a checkpointed run and train the remaining epochs.

        Restores the PS state/version, the server optimizer's slots, the
        driver RNG position and the best-snapshot tracker, so an
        uninterrupted run and a checkpoint→resume run produce
        byte-identical results.
        """
        path = checkpoint_path or self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint_path to resume from")
        ckpt = load_checkpoint(path)
        rng = ckpt.make_rng()
        tracker = BestTracker()
        if ckpt.best_state is not None:
            tracker.update(ckpt.best_score, ckpt.best_state)
        profiling.count("cluster.resume")
        return self._execute(model_factory, dataset, config, rng,
                             use_dr=use_dr, start_epoch=ckpt.epoch,
                             tracker=tracker, ckpt=ckpt)

    # ------------------------------------------------------------------
    # Driver loop
    # ------------------------------------------------------------------
    def _execute(self, model_factory, dataset, config, rng, use_dr,
                 start_epoch, tracker, ckpt=None):
        driver_model = model_factory("driver")
        embedding_names = embedding_parameter_names(driver_model)
        self.clock = VirtualClock()
        self.crashes = []
        self.evictions = []
        self._beat_ticks = {}
        self._beat_round = {}
        self._start_round = start_epoch
        self.ps = ParameterServer(
            driver_model.state_dict(),
            embedding_names=embedding_names,
            outer_lr=config.outer_lr,
            outer_optimizer=self.outer_optimizer,
            max_staleness=self.max_staleness,
        )
        if ckpt is not None:
            self.ps.restore(ckpt.state, ckpt.version, ckpt.optimizer_slots)
        shards = shard_domains(dataset, self.n_workers)
        field_map = embedding_field_map(driver_model) if embedding_names else {}
        self.workers = [
            Worker(i, model_factory(i), shard,
                   self._make_client(i, start_epoch), config,
                   field_map=field_map)
            for i, shard in enumerate(shards) if shard
        ]
        if ckpt is not None:
            restore_module_rngs(driver_model, ckpt.driver_rngs)
            for worker in self.workers:
                slots = ckpt.worker_slots.get(worker.worker_id)
                if slots:
                    worker.optimizer.load_state_slots(slots)
                restore_module_rngs(
                    worker.model, ckpt.worker_rngs.get(worker.worker_id)
                )

        for epoch in range(start_epoch, config.epochs):
            self.clock.advance(1.0)
            self._evict_unresponsive(dataset, epoch)
            self._run_round(dataset, rng)
            self._observe_heartbeats(epoch)
            driver_model.load_state_dict(self.ps.full_state())
            tracker.update(model_split_auc(driver_model, dataset),
                           self.ps.full_state())
            if (
                self.checkpoint_path is not None
                and (epoch + 1) % self.checkpoint_every == 0
                and epoch + 1 < config.epochs
            ):
                save_checkpoint(self.checkpoint_path, self.ps, epoch + 1,
                                rng=rng, tracker=tracker,
                                workers=self.workers,
                                driver_model=driver_model)

        shared = tracker.best
        driver_model.load_state_dict(shared)
        if not use_dr:
            return SingleModelBank(driver_model)

        # Full MAMDR: DR for the specific deltas, run driver-side and
        # gated by the space's delta-sharing groups.
        space = DomainParameterSpace(driver_model, dataset.n_domains)
        space.set_shared(shared)
        view, groups = space.training_plan(dataset)
        dr_tracker = PerDomainTracker(dataset.n_domains)
        for _ in range(config.epochs):
            regularize_groups(driver_model, view, groups, space, config, rng)
            dr_tracker.update_from_space(driver_model, dataset, space)
        return StateBank(driver_model, dr_tracker.best_states(),
                         default_state=space.shared)

    def _make_client(self, worker_id, start_epoch):
        channel = DirectChannel(self.ps)
        retry_rng = None
        if self.fault_plan is not None:
            channel = FaultyChannel(channel, self.fault_plan, worker_id,
                                    clock=self.clock)
            retry_rng = self.fault_plan.retry_rng(worker_id)
        return PSClient(channel, worker_id, retry=self.retry_policy,
                        rng=retry_rng, clock=self.clock,
                        incarnation=start_epoch)

    # ------------------------------------------------------------------
    # Scheduling, crashes, eviction
    # ------------------------------------------------------------------
    def _run_round(self, dataset, rng):
        if self.mode == "async":
            order = list(range(len(self.workers)))
            rng.shuffle(order)
            for index in order:
                self._run_worker_epoch(self.workers[index], dataset, rng)
        else:
            # Bulk-synchronous: everyone pulls the same snapshot; deltas are
            # buffered on the PS and applied together at the round barrier.
            self.ps.begin_sync_round()
            for worker in self.workers:
                self._run_worker_epoch(worker, dataset, rng)
            self.ps.end_sync_round()

    def _run_worker_epoch(self, worker, dataset, rng):
        if not worker.alive or worker.evicted:
            return
        try:
            worker.run_epoch(dataset, rng)
        except WorkerCrashed as crash:
            worker.alive = False
            profiling.count("cluster.worker_crash")
            self.crashes.append({
                "worker": worker.worker_id,
                "reason": f"crashed on message #{crash.message_index}",
                "tick": self.clock.now,
            })
        except DeliveryFailed as failure:
            # The PS stayed unreachable through every retry: the worker is
            # effectively partitioned away; treat it like a dead process.
            worker.alive = False
            profiling.count("cluster.worker_unreachable")
            self.crashes.append({
                "worker": worker.worker_id,
                "reason": str(failure),
                "tick": self.clock.now,
            })

    def _observe_heartbeats(self, round_index):
        """Record which workers produced a fresh beat this round."""
        for worker in self.workers:
            tick = self.ps.heartbeats.get(worker.worker_id)
            if tick is not None and tick != self._beat_ticks.get(worker.worker_id):
                self._beat_ticks[worker.worker_id] = tick
                self._beat_round[worker.worker_id] = round_index

    def _evict_unresponsive(self, dataset, round_index):
        """Evict workers whose heartbeats stalled; re-shard their domains.

        The monitor only sees heartbeats — it never peeks at the crash
        exception — so recovery is driven by the same signal the real
        deployment has.
        """
        if self.heartbeat_timeout is None:
            return
        # A healthy worker's last beat is one round old at check time, so a
        # worker is unresponsive once its silence *exceeds* the timeout:
        # with heartbeat_timeout=1, a worker that died in round k is
        # evicted at the start of round k+2.
        doomed = [
            worker for worker in self.workers
            if not worker.evicted
            and round_index - self._beat_round.get(
                worker.worker_id, self._start_round
            ) > self.heartbeat_timeout
        ]
        if not doomed:
            return
        for worker in doomed:
            worker.evicted = True
        survivors = [w for w in self.workers if not w.evicted]
        if not survivors:
            raise RuntimeError(
                "every worker was evicted; restart from the last checkpoint "
                "with SimulatedCluster.resume()"
            )
        for worker in doomed:
            orphaned, worker.domain_indices = worker.domain_indices, []
            assignments = reassign_domains(dataset, orphaned, survivors)
            profiling.count("cluster.eviction")
            self.evictions.append({
                "worker": worker.worker_id,
                "round": round_index,
                "reassigned": assignments,
            })

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        """Synchronization, transport and recovery statistics."""
        if self.ps is None:
            raise RuntimeError("run() has not been called")
        return {
            "ps_version": self.ps.version,
            "ps_pulls": dict(self.ps.pull_counts),
            "ps_pushes": dict(self.ps.push_counts),
            "ps_dedup_hits": self.ps.dedup_hits,
            "ps_stale_rejections": self.ps.stale_rejections,
            "workers": {
                worker.worker_id: worker.cache_stats()
                for worker in self.workers
            },
            "transport": {
                worker.worker_id: worker.transport_stats()
                for worker in self.workers
            },
            "crashes": list(self.crashes),
            "evictions": list(self.evictions),
            "virtual_seconds": self.clock.now if self.clock else 0.0,
        }
