"""Multi-core domain parallelism over the PS-Worker transport API.

MAMDR's inner loops are embarrassingly parallel across domains: one DN
round visits every domain independently between outer syncs, and each
DR round touches only one target's delta.  This module fans that work
out across **real worker processes** (``fork`` start method, so replicas
and the dataset are inherited copy-on-write — nothing is pickled on the
way in) while keeping every PS interaction on the PR-4 transport surface:

* :class:`PipeChannel` is a :class:`~repro.distributed.transport.Channel`
  whose ``call`` crosses a ``multiprocessing`` pipe; the driver process
  answers with the real :class:`~repro.distributed.ps.ParameterServer`
  message handler, so the wire protocol is byte-for-byte the one the
  in-process simulation uses.
* :func:`parallel_dn_epoch` runs one bulk-synchronous DN round: every
  worker pulls the same PS snapshot, replays the compiled step tape over
  its domain shard locally, and pushes its outer delta (Eq. 3) back for
  the barrier apply — the same semantics as ``SimulatedCluster``'s
  ``sync`` mode, now on separate cores.
* :func:`parallel_dr_rounds` maps DR targets over the pool; each
  target's RNG derives from ``(seed, "pdr", target)`` alone, so results
  are byte-identical for every worker count (the n_workers=1 fast path
  runs in-process and is the reference).

With ``n_workers=1`` (or when ``fork`` is unavailable) both entry points
degrade to the exact sequential code paths — no processes, no pipes.
"""

from __future__ import annotations

import os
import traceback
from multiprocessing import connection, get_context

from ..core.negotiation import domain_negotiation_epoch
from ..core.regularization import domain_regularization_round
from ..utils import profiling
from ..utils.seeding import spawn_rng
from .cluster import shard_domains
from .ps import ParameterServer
from .transport import Channel, PSClient
from .worker import Worker, embedding_field_map, embedding_parameter_names

__all__ = [
    "PipeChannel",
    "RemoteWorkerError",
    "resolve_worker_count",
    "fork_available",
    "parallel_dn_epoch",
    "parallel_dr_rounds",
]


class RemoteWorkerError(RuntimeError):
    """A forked worker died; carries the remote traceback text."""


def resolve_worker_count(n_workers=None):
    """Resolve a worker count: ``None``/0 → one per available core."""
    if n_workers is None or n_workers == 0:
        n_workers = os.cpu_count() or 1
    if n_workers < 0:
        raise ValueError("n_workers must be None or >= 0")
    return n_workers


def fork_available():
    """Whether the platform has the ``fork`` start method the process
    fan-outs (here and in ``repro.traffic.pool``) rely on."""
    try:
        return "fork" in __import__("multiprocessing").get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


# ----------------------------------------------------------------------
# Transport over a pipe
# ----------------------------------------------------------------------
class PipeChannel(Channel):
    """Channel whose request/response round trip crosses a process pipe.

    The worker end sends ``("call", request)`` and blocks on the reply;
    the driver end answers with the PS handler's
    :class:`~repro.distributed.transport.Response` (or ``("err", text)``
    when the handler raised, re-raised here as :class:`RemoteWorkerError`).
    """

    def __init__(self, conn):
        self._conn = conn

    def call(self, request):
        self._conn.send(("call", request))
        kind, payload = self._conn.recv()
        if kind == "err":
            raise RemoteWorkerError(payload)
        return payload


def _serve_until_done(ps, conns):
    """Answer transport messages from all workers until each signals done.

    Returns ``{worker_slot: payload}`` of the workers' ``done`` payloads.
    Raises :class:`RemoteWorkerError` when any worker reports a failure
    (after draining the rest, so no child is left blocked on a send).
    """
    by_conn = {conn: slot for slot, conn in conns.items()}
    open_conns = set(by_conn)
    results, failures = {}, []
    while open_conns:
        for conn in connection.wait(list(open_conns)):
            try:
                message = conn.recv()
            except EOFError:
                open_conns.discard(conn)
                failures.append(
                    f"worker {by_conn[conn]} exited without reporting"
                )
                continue
            kind, payload = message
            if kind == "call":
                try:
                    conn.send(("ok", ps.handle(payload)))
                except Exception:
                    conn.send(("err", traceback.format_exc()))
            elif kind == "done":
                results[by_conn[conn]] = payload
                open_conns.discard(conn)
            else:
                assert kind == "fail"
                failures.append(payload)
                open_conns.discard(conn)
    if failures:
        raise RemoteWorkerError("\n".join(failures))
    return results


# ----------------------------------------------------------------------
# Parallel DN
# ----------------------------------------------------------------------
def _dn_worker_main(conn, worker_id, model, dataset, shard, config, seed):
    """Forked child: run one worker epoch against the piped PS."""
    try:
        client = PSClient(PipeChannel(conn), worker_id)
        worker = Worker(worker_id, model, shard, client, config,
                        field_map=embedding_field_map(model))
        worker.run_epoch(dataset, spawn_rng(seed, "pdn", worker_id))
        conn.send(("done", None))
    except Exception:
        conn.send(("fail", traceback.format_exc()))
    finally:
        conn.close()


def parallel_dn_epoch(model, dataset, shared_state, config, rng,
                      n_workers=None):
    """One DN round with domains fanned across forked worker processes.

    ``n_workers=1`` (or no ``fork`` support) is the in-process fast path:
    it runs :func:`~repro.core.negotiation.domain_negotiation_epoch`
    exactly — the sequential Algorithm 1 trajectory.  With more workers
    this is the deployment's *data-parallel* DN round (bulk-synchronous,
    identical to ``SimulatedCluster`` ``sync`` mode): workers pull the
    same snapshot Θ, train their shard's inner trajectory locally —
    replaying the compiled step tape when the ambient
    :func:`repro.nn.compiled_execution` flag is on — and
    the PS applies every ``Θ~_w − Θ`` with the β barrier step.

    Returns the new shared state; like the sequential epoch, ``model`` is
    scratch space (callers needing Θ must reload it).
    """
    n_workers = resolve_worker_count(n_workers)
    n_workers = min(n_workers, dataset.n_domains)
    if n_workers <= 1 or not fork_available():
        return domain_negotiation_epoch(model, dataset, shared_state, config,
                                        rng)

    # Children inherit the model at Θ copy-on-write; embedding tables stay
    # authoritative on the PS and are fetched row-wise through the cache.
    model.load_state_dict(shared_state)
    ps = ParameterServer(
        shared_state,
        embedding_names=embedding_parameter_names(model),
        outer_lr=config.outer_lr,
    )
    shards = [s for s in shard_domains(dataset, n_workers) if s]
    seed = int(rng.integers(0, 2**63))

    ctx = get_context("fork")
    conns, procs = {}, []
    ps.begin_sync_round()
    try:
        for worker_id, shard in enumerate(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_dn_worker_main,
                args=(child_conn, worker_id, model, dataset, shard, config,
                      seed),
            )
            proc.start()
            child_conn.close()
            conns[worker_id] = parent_conn
            procs.append(proc)
        _serve_until_done(ps, conns)
    finally:
        for conn in conns.values():
            conn.close()
        for proc in procs:
            proc.join()
    ps.end_sync_round()
    profiling.count("parallel.dn_round")
    return ps.full_state()


# ----------------------------------------------------------------------
# Parallel DR
# ----------------------------------------------------------------------
def _reseed_module_rngs(model, seed, target):
    """Re-key every module RNG stream (dropout) to ``(seed, target)``.

    Module generators otherwise advance with each training forward, so a
    target's stream position would depend on which targets ran before it
    in the same process — the one piece of state that would break
    worker-count invariance.
    """
    for name, rng in model.named_rngs():
        fresh = spawn_rng(seed, "pdr", target, "module", name)
        rng.bit_generator.state = fresh.bit_generator.state


def _dr_targets(model, dataset, space, config, seed, targets):
    """DR rounds for ``targets``; per-target RNG keys make the schedule
    independent of which process runs which target."""
    out = {}
    for target in targets:
        _reseed_module_rngs(model, seed, target)
        rng = spawn_rng(seed, "pdr", target)
        out[target] = domain_regularization_round(
            model, dataset, space, target, config, rng
        )
    return out


def _dr_worker_main(conn, model, dataset, space, config, seed, targets):
    try:
        deltas = _dr_targets(model, dataset, space, config, seed, targets)
        conn.send(("done", deltas))
    except Exception:
        conn.send(("fail", traceback.format_exc()))
    finally:
        conn.close()


def parallel_dr_rounds(model, dataset, space, config, seed, targets=None,
                       n_workers=None):
    """DR rounds for every target domain, mapped over forked workers.

    Returns ``{target: new delta}``.  Unlike sequential
    ``MAMDR.fit`` — which threads one RNG through all targets — each
    target's RNG here derives from ``(seed, "pdr", target)`` alone, so
    the result is byte-identical for *any* worker count, including the
    ``n_workers=1`` in-process reference path.  The caller owns applying
    the deltas (``space.set_delta``).
    """
    if targets is None:
        targets = list(range(dataset.n_domains))
    targets = list(targets)
    n_workers = min(resolve_worker_count(n_workers), max(1, len(targets)))
    if n_workers <= 1 or not fork_available() or len(targets) <= 1:
        return _dr_targets(model, dataset, space, config, seed, targets)

    shards = [targets[i::n_workers] for i in range(n_workers)]
    shards = [s for s in shards if s]
    ctx = get_context("fork")
    conns, procs = {}, []
    try:
        for slot, shard in enumerate(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_dr_worker_main,
                args=(child_conn, model, dataset, space, config, seed, shard),
            )
            proc.start()
            child_conn.close()
            conns[slot] = parent_conn
            procs.append(proc)
        # No PS traffic in DR (deltas live driver-side); the serve loop
        # only collects each shard's result payload.
        results = _serve_until_done(None, conns)
    finally:
        for conn in conns.values():
            conn.close()
        for proc in procs:
            proc.join()
    deltas = {}
    for shard_deltas in results.values():
        deltas.update(shard_deltas)
    profiling.count("parallel.dr_round")
    return deltas
