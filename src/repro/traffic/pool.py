"""Multi-process predictor pool over one shared-memory snapshot.

One Python process tops out at one core's worth of scoring QPS;
"heavy traffic from millions of users" needs N scoring processes.  The
pool forks ``n_workers`` children, each running the *unchanged*
:class:`~repro.serving.service.Predictor` — the same row path, the same
caches — against a :class:`~repro.serving.snapshots.SharedSnapshotArena`:
every published generation is materialized **once** into a shared-memory
segment (θ_S stored once, zero-delta domains aliasing it, exactly the COW
structure of the in-process store) and mapped zero-copy, read-only by
every worker.  Because the bytes and the code path are identical, pooled
responses are bit-identical to the single-process serving path — the
serving tier's parity property survives the process boundary.

Hot reload under load: :meth:`PredictorPool.publish` materializes the
next generation's segment, then broadcasts a reload message through each
worker's task pipe.  The flip is therefore *in-band*: batches sent
before the reload score under the old generation, batches after it under
the new one, and every response carries its ``(generation, version)`` tag
so callers can verify against the right reference.  An old segment is
retired only after every worker acknowledged the flip; the first one
retired stays mapped as the single *spare* the next publish packs into.

Transport is deliberately boring: one duplex pipe per worker, tasks one
way and replies the other, numpy batches pickled across.  The parent
waits on all pipes and process sentinels at once, so a stopped or killed
worker holds up no other worker's replies, and a dead one is named once
everything it sent is read.  A worker blocked on a full reply pipe reads
no tasks, so the parent reads its replies before sending it more.
Per-batch IPC cost is amortized by micro-batching upstream — callers
dispatch admission-controlled per-domain batches, not single rows.

:func:`check_pool_parity` is the pool's acceptance check: it publishes
successive generations mid-trace and compares every pooled response
bitwise against a single-process :class:`Predictor` pinned to the
generation the response reports.
"""

from __future__ import annotations

import os
import select
import traceback
from collections import deque
from multiprocessing import connection, get_all_start_methods, get_context

import numpy as np

from ..serving.service import Predictor
from ..serving.snapshots import SharedSnapshotArena
from ..utils import profiling

__all__ = ["PoolError", "PredictorPool", "check_pool_parity",
           "fork_available"]


def fork_available():
    """Whether the platform has the ``fork`` start method the pool needs."""
    return "fork" in get_all_start_methods()


class PoolError(RuntimeError):
    """A pool worker failed; carries the remote traceback text."""


class _WorkerStore:
    """SnapshotStore facade over the worker's attached arena.

    ``Predictor`` only ever calls ``current()``; ``flip`` swaps the
    attached generation between batches (the worker loop is
    single-threaded, so a batch never straddles generations).
    """

    def __init__(self):
        self._arena = None
        self._retired = []

    def current(self):
        if self._arena is None:
            raise LookupError("no snapshot attached yet")
        return self._arena.snapshot

    @property
    def generation(self):
        return self._arena.generation if self._arena is not None else None

    def flip(self, manifest):
        previous, self._arena = self._arena, SharedSnapshotArena.attach(manifest)
        if previous is not None:
            self._retired.append(previous)
        # Retire older mappings whose views have died (the predictor's
        # caches were invalidated before the flip, so normally all of
        # them close on the first try).
        self._retired = [
            arena for arena in self._retired if not arena.close()
        ]

    def detach(self):
        for arena in self._retired:
            arena.close()
        if self._arena is not None:
            self._arena.close()


def _worker_main(worker_id, pipe, model):
    """Forked child: attach, score, flip generations, report errors."""
    store = _WorkerStore()
    predictor = Predictor(model, store)
    try:
        while True:
            message = pipe.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "reload":
                manifest = message[1]
                predictor.invalidate_caches()
                store.flip(manifest)
                pipe.send(("reloaded", worker_id, manifest["generation"]))
            elif kind == "score":
                _, batch_id, domain, users, items = message
                generation = store.generation
                version = store.current().version
                scores = predictor.predict_batch(users, items, domain)
                pipe.send((
                    "scores", worker_id, batch_id, generation, version,
                    np.asarray(scores, dtype=np.float64),
                ))
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown pool message {kind!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    except Exception:
        pipe.send(("error", worker_id, traceback.format_exc()))
    finally:
        store.detach()
        pipe.close()


class PredictorPool:
    """N forked predictor processes sharing one snapshot arena.

    Usage::

        pool = PredictorPool(model, n_workers=4)
        pool.start()
        pool.publish(store.current())            # generation 1
        pool.submit(batch_id=0, domain=2, users=u, items=i)
        for result in pool.drain(expected=1):
            ...  # ("scores", worker, batch_id, generation, version, scores)
        pool.shutdown()

    ``model`` is inherited by the forked children (copy-on-write); the
    parent's copy is never touched by pool scoring.
    """

    def __init__(self, model, n_workers=2):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if not fork_available():
            raise PoolError(
                "PredictorPool requires the fork start method (POSIX); "
                "shared-memory attachment from spawned children would "
                "fight the resource tracker"
            )
        self._model = model
        self.n_workers = int(n_workers)
        self._ctx = get_context("fork")
        self._procs = []
        self._pipes = []
        self._replies = deque()      # score replies read, not handed out
        self._generation = 0
        self._arenas = {}            # generation -> owner-side arena
        self._spare = None           # retired arena the next publish reuses
        self._pending_acks = {}      # generation -> set(worker ids)
        self._next_worker = 0
        self._inflight = 0
        self.started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self.started:
            return self
        # Start the resource tracker in the parent BEFORE forking: children
        # then inherit one shared tracker, so their attach-time shared_memory
        # registrations land in the same cache the owner's unlink clears.
        # A worker that lazily spawns its own tracker would hold a stale
        # entry forever and warn "leaked shared_memory objects" at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        for worker_id in range(self.n_workers):
            parent_end, child_end = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, child_end, self._model),
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._pipes.append(parent_end)
            self._procs.append(proc)
        self.started = True
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False

    def shutdown(self, timeout=10.0):
        if not self.started:
            return
        for worker in range(self.n_workers):
            try:
                self._send(worker, ("stop",))
            except PoolError:
                pass
        for pipe, proc in zip(self._pipes, self._procs):
            # Read until the worker closes its end: one blocked writing a
            # reply nobody drained would never read its stop.
            try:
                while pipe.poll(timeout):
                    pipe.recv()
            except (EOFError, OSError):
                pass
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join(timeout)
            pipe.close()
        for arena in filter(None, (*self._arenas.values(), self._spare)):
            arena.unlink()
        self._arenas.clear()
        self._spare = None
        self._procs, self._pipes = [], []
        self._replies.clear()
        self.started = False

    # ------------------------------------------------------------------
    # Publishing (hot reload)
    # ------------------------------------------------------------------
    @property
    def generation(self):
        return self._generation

    def publish(self, snapshot, wait=True):
        """Materialize ``snapshot`` as the next generation and flip workers.

        With ``wait=True`` blocks until every worker acknowledged the
        flip (score results arriving meanwhile are buffered and returned).
        With ``wait=False`` — hot reload *under load* — the reload rides
        each worker's task pipe behind whatever batches are already
        waiting; acks are collected during normal result draining and the
        superseded segment is retired once the last worker flipped.
        Returns the buffered score results (empty list for ``wait=False``).
        """
        if not self.started:
            raise PoolError("pool is not started")
        self._generation += 1
        spare, self._spare = self._spare, None
        arena = SharedSnapshotArena.materialize(
            snapshot, self._generation, spare=spare
        )
        self._arenas[self._generation] = arena
        self._pending_acks[self._generation] = set(range(self.n_workers))
        for worker in range(self.n_workers):
            self._send(worker, ("reload", arena.manifest))
        profiling.count("traffic.pool_publish")
        if not wait:
            return []
        while self._pending_acks.get(self._generation):
            self._await(timeout=30.0)
        return self._take(len(self._replies))

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def submit(self, batch_id, domain, users, items, worker=None):
        """Dispatch one homogeneous-domain batch; returns the worker id.

        Round-robin by default — deterministic, and with the admission
        controller upstream the batches are already sized for balance.
        """
        if not self.started:
            raise PoolError("pool is not started")
        if self._generation == 0:
            raise PoolError("publish a snapshot before scoring")
        if worker is None:
            worker = self._next_worker
            self._next_worker = (self._next_worker + 1) % self.n_workers
        users = np.ascontiguousarray(users, dtype=np.int64)
        items = np.ascontiguousarray(items, dtype=np.int64)
        self._send(worker, ("score", batch_id, int(domain), users, items))
        self._inflight += 1
        return worker

    @property
    def inflight(self):
        """Dispatched score batches whose results have not been drained."""
        return self._inflight

    def poll_results(self):
        """Non-blocking drain: every score result currently available."""
        for worker in range(self.n_workers):
            while self._receive(worker):
                pass
        return self._take(len(self._replies))

    def drain(self, expected=None, timeout=30.0):
        """Blocking drain of ``expected`` score results (default: all
        in-flight batches)."""
        expected = self._inflight if expected is None else int(expected)
        while len(self._replies) < expected:
            self._await(timeout)
        return self._take(expected)

    def score(self, users, items, domain):
        """Synchronous convenience: one batch, one worker, its scores."""
        self.submit(-1, domain, users, items)
        (message,) = self.drain(expected=1)
        return message[5]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _send(self, worker, message):
        """Send a task, reading the worker's replies while its pipe is full."""
        pipe = self._pipes[worker]
        try:
            while not select.select([pipe], [pipe], [])[1]:
                if not self._receive(worker):
                    raise self._worker_died(worker)
            pipe.send(message)
        except OSError:
            raise self._worker_died(worker) from None

    def _receive(self, worker):
        """Read one message of ``worker``: a score reply is buffered,
        control traffic handled.  False when there is none to read or the
        worker is gone (its pipe at EOF or reset)."""
        pipe = self._pipes[worker]
        try:
            if not pipe.poll():
                return False
            message = pipe.recv()
        except (EOFError, OSError):
            return False
        if message[0] == "scores":
            self._replies.append(message)
        else:
            self._handle_control(message)
        return True

    def _await(self, timeout):
        """Block until a message of some worker was read.  A worker whose
        sentinel fired or whose pipe read EOF is named dead once nothing
        it sent before dying is left to read."""
        handles = self._pipes + [proc.sentinel for proc in self._procs]
        ready = connection.wait(handles, timeout)
        if not ready:
            raise PoolError(
                f"no pool result within {timeout}s "
                f"({self._inflight} batches in flight)"
            )
        workers = {handles.index(handle) % self.n_workers for handle in ready}
        dead = [worker for worker in workers if not self._receive(worker)]
        if len(dead) == len(workers):
            raise self._worker_died(dead[0])

    def _take(self, count):
        """Hand out the first ``count`` buffered score replies."""
        self._inflight -= count
        return [self._replies.popleft() for _ in range(count)]

    def _worker_died(self, worker):
        proc = self._procs[worker]
        proc.join(1.0)   # its pipe can read EOF a moment before it exits
        return PoolError(
            f"worker {worker} (pid {proc.pid}) exited with code "
            f"{proc.exitcode} ({self._inflight} batches in flight)"
        )

    def _handle_control(self, message):
        """Process a control message: a worker's error, or a reload ack."""
        if message[0] == "error":
            raise PoolError(f"worker {message[1]} failed:\n{message[2]}")
        _, worker_id, generation = message          # ("reloaded", ...)
        acks = self._pending_acks.get(generation)
        if acks is not None:
            acks.discard(worker_id)
            if not acks:
                del self._pending_acks[generation]
                self._retire_generations(keep=generation)

    def _retire_generations(self, keep):
        """Retire every fully superseded segment older than ``keep``.

        A generation may only be destroyed (or, as the spare, overwritten)
        once no worker can still flip to it — i.e. once a *newer*
        generation has been acknowledged by every worker (workers score on
        their attached generation between the publish and their flip).
        """
        for generation in sorted(self._arenas):
            if generation >= keep:
                continue
            arena = self._arenas.pop(generation)
            if self._spare is None:
                arena.snapshot = None  # keep the mapping, not the heap copy
                self._spare = arena
            else:
                arena.unlink()
            profiling.count("traffic.pool_segment_retired")

    def worker_pids(self):
        return [proc.pid for proc in self._procs]

    def stats(self):
        return {
            "n_workers": self.n_workers,
            "generation": self._generation,
            "inflight": self._inflight,
            "segments": {
                generation: arena.nbytes
                for generation, arena in sorted(self._arenas.items())
            },
            "pids": self.worker_pids(),
            "parent_pid": os.getpid(),
        }


# ----------------------------------------------------------------------
# Pool parity
# ----------------------------------------------------------------------
def _batched(trace, max_batch):
    """Per-domain batches in arrival order (closed-loop dispatch plan)."""
    pending = {}
    order = []
    batches = []
    for position in range(len(trace)):
        domain = int(trace.domains[position])
        if domain not in pending:
            pending[domain] = []
            order.append(domain)
        pending[domain].append(position)
        if len(pending[domain]) >= max_batch:
            batches.append((domain, pending.pop(domain)))
            order.remove(domain)
    for domain in order:
        batches.append((domain, pending[domain]))
    return batches


def check_pool_parity(pool, model, snapshots, trace, max_batch=32):
    """Bit-parity of pooled scoring across a hot reload under load.

    ``snapshots`` are published to the pool as successive generations;
    the trace's batches are split evenly across them, with each reload
    after the *n*-th chunk issued ``wait=False`` — in-band, while that
    chunk's batches are still waiting at the workers.  Every response is
    then compared bitwise against a fresh single-process
    :class:`Predictor` pinned to the generation the response reports.
    """
    batches = _batched(trace, max_batch)
    chunk = -(-len(batches) // len(snapshots))

    class _Pinned:
        def __init__(self, snapshot):
            self._snapshot = snapshot

        def current(self):
            return self._snapshot

    references = {}
    results = []
    for stage, snapshot in enumerate(snapshots):
        generation = pool.generation + 1
        references[generation] = Predictor(model, _Pinned(snapshot))
        # First publish waits (workers must attach before scoring);
        # later ones ride the pipes behind in-flight batches.
        results.extend(pool.publish(snapshot, wait=stage == 0))
        for batch_id in range(stage * chunk, min((stage + 1) * chunk,
                                                 len(batches))):
            domain, positions = batches[batch_id]
            pool.submit(
                batch_id, domain,
                trace.users[positions], trace.items[positions],
            )
    results.extend(pool.drain())

    generations_seen = set()
    mismatches = 0
    for _, _, batch_id, generation, version, scores in results:
        generations_seen.add(generation)
        domain, positions = batches[batch_id]
        reference = references[generation]
        # The reference predictors share one model; a predictor's
        # loaded-state memo cannot see the others clobbering it, so force
        # a full reload before every reference score.
        reference.invalidate_caches()
        expected = reference.predict_batch(
            trace.users[positions], trace.items[positions], domain
        )
        if version != reference._store.current().version:
            mismatches += 1
        elif not np.array_equal(scores, np.asarray(expected)):
            mismatches += 1
    return {
        "ok": mismatches == 0 and generations_seen == set(references),
        "batches": len(results),
        "mismatches": mismatches,
        "generations": sorted(generations_seen),
    }

