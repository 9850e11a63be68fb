"""Single-core lane-parallel DN/DR rounds via vectorized tape replay.

:mod:`repro.distributed.parallel` fans MAMDR's bulk-synchronous rounds
across forked worker *processes*; this module exploits the same
independence on **one core**.  Every worker in a sync DN round pulls the
identical snapshot Θ and trains its shard without seeing the others until
the barrier, and every DR target's helper pass starts from its own
``θ_S + θ_i`` — so instead of ``n`` processes, the ``n`` trajectories run
as one lane-batched replay of the compiled step tape
(:class:`repro.nn.vectorized.VectorTape`), dispatching each kernel once
for the whole fleet.

Bitwise contract: :func:`vector_dn_round` reproduces the sequential
in-process reference :func:`sync_dn_round_reference` — the same workers,
PS protocol and push order, run lane-by-lane — bit-for-bit, and
:func:`vector_dr_rounds` likewise reproduces
:func:`repro.distributed.parallel._dr_targets`.  Anything the vector
engine cannot guarantee (embedding tables, domain-conditioned graphs,
ragged lane schedules, exotic optimizers) raises
:class:`~repro.nn.vectorized.VectorBail` internally and silently falls
back to that reference, counting ``vector.bail`` in the active profile.

RNG discipline mirrors the process pool exactly: DN lane ``w`` consumes
``spawn_rng(seed, "pdn", w)`` for shuffles/batching and inherits the
entry dropout streams (what a forked child would see); DR lane ``t``
consumes ``spawn_rng(seed, "pdr", t)`` and module streams keyed by
``(seed, "pdr", t, "module", name)`` — identical to
:func:`repro.distributed.parallel._reseed_module_rngs`.
"""

from __future__ import annotations

import copy

import numpy as np

from ..data.batching import iter_minibatches
from ..nn.compile import executor_for
from ..nn.optim import make_optimizer
from ..nn.state import clone_state, state_add
from ..nn.vectorized import VectorBail, vector_tape_for
from ..utils import profiling
from ..utils.seeding import spawn_rng
from .cluster import shard_domains
from .parallel import _dr_targets
from .ps import ParameterServer
from .transport import DirectChannel, PSClient
from .worker import Worker, embedding_field_map, embedding_parameter_names

__all__ = [
    "vector_dn_round",
    "sync_dn_round_reference",
    "vector_dr_rounds",
]

_SUPPORTED_OPTIMIZERS = ("adam", "sgd")

#: lanes replayed per VectorTape pass.  Lanes are mutually independent
#: until the sync barrier, so a 128-worker round can run as four 32-lane
#: replays with bitwise-identical results — and a (32, P) arena (plus
#: grads, moments and temps) stays cache-resident where a (128, P) one
#: streams from last-level cache on every kernel.
_LANE_BLOCK = 32


# ----------------------------------------------------------------------
# Module-RNG bookkeeping
# ----------------------------------------------------------------------

def _snapshot_module_rngs(model):
    """``[(generator, entry state)]`` for every dropout RNG."""
    return [
        (rng, copy.deepcopy(rng.bit_generator.state))
        for _, rng in model.named_rngs()
    ]


def _restore_module_rngs(snaps):
    for rng, state in snaps:
        rng.bit_generator.state = copy.deepcopy(state)


def _tape_rng_module_names(model, tape):
    """Module name of each of ``tape._rngs`` (draw-order identity match)."""
    by_id = {id(rng): name for name, rng in model.named_rngs()}
    names = []
    for rng in tape._rngs:
        name = by_id.get(id(rng))
        if name is None:
            raise VectorBail("tape rng does not belong to a model module")
        names.append(name)
    return names


# ----------------------------------------------------------------------
# Tape acquisition
# ----------------------------------------------------------------------

def _step_tape(model, batch, config):
    """The compiled tape for one step, leaving the model untouched.

    Tracing runs a *real* training step, so parameters and dropout
    streams are snapshotted and restored around it; the throwaway
    optimizer dies here.
    """
    snaps = _snapshot_module_rngs(model)
    state = model.state_dict()
    optimizer = make_optimizer(
        config.inner_optimizer, model.parameters(), config.inner_lr
    )
    try:
        tape = executor_for(model).tape_for(batch, optimizer)
    finally:
        model.load_state_dict(state)
        _restore_module_rngs(snaps)
    if tape is None:
        raise VectorBail("step is not compilable")
    return tape


def _batch_shapes(batch):
    return (batch.users.shape, batch.items.shape, batch.labels.shape)


def _check_uniform(schedules, steps):
    """All lanes must run the same number of identically-shaped steps."""
    if steps == 0 or any(len(s) != steps for s in schedules):
        raise VectorBail("lane schedules have different lengths")
    shapes = _batch_shapes(schedules[0][0])
    for schedule in schedules:
        for batch in schedule:
            if _batch_shapes(batch) != shapes:
                raise VectorBail("lane batches differ in shape")


def _check_vectorizable(model, config):
    if embedding_parameter_names(model):
        raise VectorBail("embedding tables need the row-wise PS protocol")
    if getattr(model, "multi_domain", True):
        raise VectorBail("domain-conditioned graphs differ across lanes")
    if config.inner_optimizer.lower() not in _SUPPORTED_OPTIMIZERS:
        raise VectorBail(
            f"no batched inner optimizer for {config.inner_optimizer!r}"
        )


# ----------------------------------------------------------------------
# DN
# ----------------------------------------------------------------------

def vector_dn_round(model, dataset, shared_state, config, rng, n_workers=None):
    """One bulk-synchronous DN round, all workers replayed as lanes.

    Semantically identical to :func:`~repro.distributed.parallel.
    parallel_dn_epoch` in ``sync`` mode (and bitwise identical to
    :func:`sync_dn_round_reference` with the same arguments): ``n``
    workers pull Θ, train their shard's inner trajectory, and the PS
    applies every ``Θ~_w − Θ`` with the β barrier step.  ``n_workers``
    defaults to one lane per domain — the maximally vectorized fleet.
    Falls back to the sequential reference when the model/tape cannot be
    lane-vectorized.  Returns the new shared state; ``model`` is scratch.
    """
    n_lanes = _resolve_lanes(dataset, n_workers)
    seed = int(rng.integers(0, 2**63))
    try:
        return _vector_dn(model, dataset, shared_state, config, seed, n_lanes)
    except VectorBail:
        profiling.count("vector.bail")
        return _reference_dn(model, dataset, shared_state, config, seed,
                             n_lanes)


def sync_dn_round_reference(model, dataset, shared_state, config, rng,
                            n_workers=None):
    """The sequential in-process twin of :func:`vector_dn_round`.

    Runs the identical workers lane-by-lane over a
    :class:`DirectChannel`; this is the bitwise parity oracle the vector
    engine is tested against, and the fallback it degrades to.
    """
    n_lanes = _resolve_lanes(dataset, n_workers)
    seed = int(rng.integers(0, 2**63))
    return _reference_dn(model, dataset, shared_state, config, seed, n_lanes)


def _resolve_lanes(dataset, n_workers):
    if n_workers is None or n_workers == 0:
        return dataset.n_domains
    if n_workers < 0:
        raise ValueError("n_workers must be None or >= 0")
    return min(n_workers, dataset.n_domains)


def _reference_dn(model, dataset, shared_state, config, seed, n_lanes):
    snaps = _snapshot_module_rngs(model)
    ps = ParameterServer(
        shared_state,
        embedding_names=embedding_parameter_names(model),
        outer_lr=config.outer_lr,
    )
    shards = [s for s in shard_domains(dataset, n_lanes) if s]
    field_map = embedding_field_map(model)
    ps.begin_sync_round()
    for worker_id, shard in enumerate(shards):
        # Each lane starts exactly where a forked child would: model at Θ,
        # dropout streams at their entry states.
        model.load_state_dict(shared_state)
        _restore_module_rngs(snaps)
        worker = Worker(
            worker_id, model, shard, PSClient(DirectChannel(ps), worker_id),
            config, field_map=field_map,
        )
        worker.run_epoch(dataset, spawn_rng(seed, "pdn", worker_id))
    ps.end_sync_round()
    _restore_module_rngs(snaps)
    return ps.full_state()


def _dn_schedules(dataset, config, seed, shards):
    """Materialize each worker's exact batch sequence up front.

    Valid because the worker RNG is consumed *only* by the shard shuffle
    and the per-domain batch permutations — training itself draws from
    the separate module streams — so listing the generators in epoch
    order replicates the interleaved consumption bit-for-bit.
    """
    schedules = []
    for worker_id, shard in enumerate(shards):
        wrng = spawn_rng(seed, "pdn", worker_id)
        order = list(shard)
        wrng.shuffle(order)
        batches = []
        for domain_index in order:
            domain = dataset.domain(domain_index)
            batches.extend(iter_minibatches(
                domain.train, domain_index, config.batch_size,
                rng=wrng, max_batches=config.inner_steps,
            ))
        schedules.append(batches)
    return schedules


def _vector_dn(model, dataset, shared_state, config, seed, n_lanes):
    _check_vectorizable(model, config)
    shards = [s for s in shard_domains(dataset, n_lanes) if s]
    if len(shards) <= 1:
        raise VectorBail("a single lane vectorizes nothing")
    schedules = _dn_schedules(dataset, config, seed, shards)
    _check_uniform(schedules, len(schedules[0]))

    snaps = _snapshot_module_rngs(model)
    model.load_state_dict(shared_state)
    tape = _step_tape(model, schedules[0][0], config)
    n_workers = len(shards)
    block = min(n_workers, _LANE_BLOCK)
    vt = vector_tape_for(tape, model, block)
    if set(shared_state) != set(vt.param_names):
        raise VectorBail("shared state keys do not match the tape leaves")
    _tape_rng_module_names(model, tape)  # every tape rng must be a module's

    # Real PS, real clients, canonical worker push order — the wire
    # traffic is exactly the reference's, only the training in between is
    # batched.
    ps = ParameterServer(shared_state, embedding_names=(),
                         outer_lr=config.outer_lr)
    ps.begin_sync_round()
    clients = [
        PSClient(DirectChannel(ps), worker_id)
        for worker_id in range(n_workers)
    ]
    pulls = []
    for client in clients:
        client.heartbeat()
        pulls.append(client.pull_dense())

    # Forked children inherit the entry dropout streams; so does each lane.
    # The state dicts are only read by the seeding, so sharing one per
    # stream across all lanes is safe.
    states_by_id = {id(rng): state for rng, state in snaps}
    n_steps = len(schedules[0])
    base_flat = None
    pushed_rows = []  # keep every block's delta views alive until the barrier
    for start in range(0, n_workers, block):
        workers = range(start, min(start + block, n_workers))
        vt = vector_tape_for(tape, model, len(workers))
        for lane, worker_id in enumerate(workers):
            vt.load_state(lane, pulls[worker_id])
        vt.set_lane_rng_states([
            [states_by_id[id(tape_rng)]] * len(workers)
            for tape_rng in tape._rngs
        ])
        # Fresh per block: every worker's inner optimizer starts clean.
        optimizer = vt.make_optimizer(config.inner_optimizer, config.inner_lr)
        for step in range(n_steps):
            vt.replay(
                [schedules[worker_id][step] for worker_id in workers],
                optimizer,
            )
        # Θ~_w − Θ for the block in one dispatch; each worker's base is a
        # copy of the same frozen snapshot, so pulls[0] stands in for all.
        if base_flat is None:
            base_flat = vt.flatten_state(pulls[0])
        rows = vt.delta_rows(base_flat)
        pushed_rows.append(rows)
        for lane, worker_id in enumerate(workers):
            clients[worker_id].push_delta(vt.row_state(rows[lane]), {})
    ps.end_sync_round()
    del pushed_rows
    _restore_module_rngs(snaps)
    profiling.count("vector.dn_round")
    return ps.full_state()


# ----------------------------------------------------------------------
# DR
# ----------------------------------------------------------------------

def vector_dr_rounds(model, dataset, space, config, seed, targets=None):
    """One DR round per target, all targets replayed as lanes.

    Bitwise identical to :func:`repro.distributed.parallel.
    parallel_dr_rounds` (any worker count): each target's RNG derives
    from ``(seed, "pdr", target)`` alone.  Returns ``{target: new
    delta}``; the caller owns applying them (``space.set_delta``).
    Falls back to the sequential per-target reference on
    :class:`VectorBail`.
    """
    if targets is None:
        targets = list(range(dataset.n_domains))
    targets = list(targets)
    try:
        return _vector_dr(model, dataset, space, config, seed, targets)
    except VectorBail:
        profiling.count("vector.bail")
        return _dr_targets(model, dataset, space, config, seed, targets)


def _dr_schedules(dataset, config, seed, targets, split="train"):
    """Per-target helper choices and per-helper batch step lists.

    Returns ``(helpers_per_lane, phases)`` where ``phases[h][lane]`` is
    the exact batch sequence lane ``lane`` runs against its ``h``-th
    helper (Eq. 6 steps on the helper, then Eq. 7 steps on the target —
    one optimizer, so one lockstep list).  Consumption order of each
    lane's RNG matches ``domain_regularization_round`` exactly:
    helper sampling first, then each phase's permutation in turn.
    """
    from ..core.regularization import sample_helper_domains

    helpers_per_lane, step_lists = [], []
    for target in targets:
        rng = spawn_rng(seed, "pdr", target)
        helpers = sample_helper_domains(
            rng, dataset.n_domains, target, config.sample_k
        )
        target_table = getattr(dataset.domain(target), split)
        per_helper = []
        for helper in helpers:
            helper_table = getattr(dataset.domain(helper), split)
            steps = list(iter_minibatches(
                helper_table, helper, config.batch_size,
                rng=rng, max_batches=config.dr_steps,
            ))
            steps.extend(iter_minibatches(
                target_table, target, config.batch_size,
                rng=rng, max_batches=config.dr_steps,
            ))
            per_helper.append(steps)
        helpers_per_lane.append(helpers)
        step_lists.append(per_helper)

    n_helpers = len(helpers_per_lane[0])
    if any(len(h) != n_helpers for h in helpers_per_lane):
        raise VectorBail("targets sample different helper counts")
    phases = []
    for h in range(n_helpers):
        lanes = [step_lists[lane][h] for lane in range(len(targets))]
        _check_uniform(lanes, len(lanes[0]))
        phases.append(lanes)
    if phases:
        first = _batch_shapes(phases[0][0][0])
        for lanes in phases[1:]:
            if _batch_shapes(lanes[0][0]) != first:
                raise VectorBail("helper phases differ in batch shape")
    return helpers_per_lane, phases


def _vector_dr(model, dataset, space, config, seed, targets):
    if len(targets) <= 1:
        raise VectorBail("a single target vectorizes nothing")
    _check_vectorizable(model, config)
    helpers_per_lane, phases = _dr_schedules(dataset, config, seed, targets)
    deltas = {target: clone_state(space.delta(target)) for target in targets}
    if not phases:
        return deltas  # k == 0: a DR round is a no-op on the deltas

    snaps = _snapshot_module_rngs(model)
    model.load_state_dict(state_add(space.shared, deltas[targets[0]]))
    tape = _step_tape(model, phases[0][0][0], config)
    n_targets = len(targets)
    block = min(n_targets, _LANE_BLOCK)
    vt = vector_tape_for(tape, model, block)
    if set(space.shared) != set(vt.param_names):
        raise VectorBail("shared state keys do not match the tape leaves")
    rng_names = _tape_rng_module_names(model, tape)

    # All inter-helper state algebra runs arena-wide on flat rows — the
    # same per-element expressions as the per-parameter state ops (load
    # ``θ_S + θ_i``, candidate ``Θ~ − θ_S``, Eq. 8 interpolation), in a
    # handful of dispatches instead of n_lanes × n_params.
    shared_flat = vt.flatten_state(space.shared)
    delta_arena = np.stack(
        [vt.flatten_state(deltas[target]) for target in targets]
    )
    candidate = np.empty((block, delta_arena.shape[1]))
    for start in range(0, n_targets, block):
        rows = delta_arena[start:start + block]
        block_targets = targets[start:start + len(rows)]
        vt = vector_tape_for(tape, model, len(rows))
        cand = candidate[:len(rows)]
        # Lane t's dropout streams are keyed exactly like the process
        # pool's _reseed_module_rngs: (seed, "pdr", target, "module",
        # name); they persist across all of the target's helper passes.
        vt.set_lane_rng_states([
            [
                spawn_rng(seed, "pdr", target, "module", name)
                .bit_generator.state
                for target in block_targets
            ]
            for name in rng_names
        ])
        for lanes in phases:
            vt.load_rows(shared_flat, rows)
            # Fresh optimizer per helper pass, as make_inner_optimizer does.
            optimizer = vt.make_optimizer(
                config.inner_optimizer, config.inner_lr
            )
            for step in range(len(lanes[0])):
                vt.replay(
                    [lanes[start + lane][step] for lane in range(len(rows))],
                    optimizer,
                )
            # θ_i ← θ_i + γ (θ_i~ − θ_i), state_interpolate_'s exact ufuncs.
            vt.delta_rows(shared_flat, out=cand)
            np.subtract(cand, rows, out=cand)
            np.multiply(cand, config.dr_lr, out=cand)
            np.add(rows, cand, out=rows)

    for lane, target in enumerate(targets):
        for name, value in vt.row_state(delta_arena[lane]).items():
            np.copyto(deltas[target][name], value)
    model.load_state_dict(space.shared)
    _restore_module_rngs(snaps)
    profiling.count("vector.dr_round")
    return deltas
