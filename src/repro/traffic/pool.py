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
worker's task queue.  The flip is therefore *in-band*: batches enqueued
before the reload score under the old generation, batches after it under
the new one, and every response carries its ``(generation, version)`` tag
so callers can verify against the right reference.  An old segment is
retired only after every worker acknowledged the flip; the first one
retired stays mapped as the single *spare* the next publish packs into.

Transport is deliberately boring: one task pipe per worker (reloads need
a broadcast), one shared result queue (its feeder thread keeps workers
from blocking on a full pipe), numpy batches pickled across.  Per-batch
IPC cost is amortized by micro-batching upstream — callers dispatch
admission-controlled per-domain batches, not single rows.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
import traceback
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from ..serving.service import Predictor
from ..serving.snapshots import SharedSnapshotArena
from ..utils import profiling

__all__ = ["PoolError", "PredictorPool", "fork_available"]

#: how long a blocking result wait sleeps before checking worker liveness.
_LIVENESS_SLICE_S = 0.1


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


def _worker_main(worker_id, tasks, results, model):
    """Forked child: attach, score, flip generations, report errors."""
    store = _WorkerStore()
    predictor = Predictor(model, store)
    try:
        while True:
            message = tasks.recv()
            kind = message[0]
            if kind == "stop":
                results.put(("stopped", worker_id))
                break
            if kind == "reload":
                manifest = message[1]
                predictor.invalidate_caches()
                store.flip(manifest)
                results.put(("reloaded", worker_id, manifest["generation"]))
            elif kind == "score":
                _, batch_id, domain, users, items = message
                generation = store.generation
                version = store.current().version
                scores = predictor.predict_batch(users, items, domain)
                results.put((
                    "scores", worker_id, batch_id, generation, version,
                    np.asarray(scores, dtype=np.float64),
                ))
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown pool message {kind!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    except Exception:
        results.put(("error", worker_id, traceback.format_exc()))
    finally:
        store.detach()
        tasks.close()


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
        self._task_pipes = []
        self._results = None
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
        self._results = self._ctx.Queue()
        for worker_id in range(self.n_workers):
            parent_end, child_end = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, child_end, self._results, self._model),
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._task_pipes.append(parent_end)
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
        for pipe in self._task_pipes:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join(timeout)
        for pipe in self._task_pipes:
            pipe.close()
        self._results.close()
        self._results.join_thread()
        for arena in filter(None, (*self._arenas.values(), self._spare)):
            arena.unlink()
        self._arenas.clear()
        self._spare = None
        self._procs, self._task_pipes = [], []
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
        each worker's task queue behind whatever batches are already
        queued; acks are collected during normal result draining and the
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
        buffered = []
        while self._pending_acks.get(self._generation):
            message = self._next_result(timeout=30.0)
            if message[0] == "scores":
                self._inflight -= 1
                buffered.append(message)
            # acks/errors are handled inside _next_result
        return buffered

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
        out = []
        while True:
            try:
                message = self._results.get_nowait()
            except queue_module.Empty:
                return out
            handled = self._handle_control(message)
            if not handled:
                self._inflight -= 1
                out.append(message)

    def drain(self, expected=None, timeout=30.0):
        """Blocking drain of ``expected`` score results (default: all
        in-flight batches)."""
        expected = self._inflight if expected is None else int(expected)
        out = []
        while len(out) < expected:
            message = self._next_result(timeout=timeout)
            if message[0] == "scores":
                self._inflight -= 1
                out.append(message)
        return out

    def score(self, users, items, domain):
        """Synchronous convenience: one batch, one worker, its scores."""
        self.submit(-1, domain, users, items)
        (message,) = self.drain(expected=1)
        return message[5]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _send(self, worker, message):
        try:
            self._task_pipes[worker].send(message)
        except BrokenPipeError:
            raise self._worker_died(worker) from None

    def _worker_died(self, worker):
        proc = self._procs[worker]
        proc.join(_LIVENESS_SLICE_S)
        return PoolError(
            f"worker {worker} (pid {proc.pid}) exited with code "
            f"{proc.exitcode} ({self._inflight} batches in flight)"
        )

    def _next_result(self, timeout):
        """The next result, waiting in slices so a dead worker is named
        as soon as it is seen exited — after one more slice, in which
        anything it sent before exiting is still read."""
        deadline = time.monotonic() + timeout
        dead = None
        while True:
            try:
                message = self._results.get(timeout=_LIVENESS_SLICE_S)
            except queue_module.Empty:
                if dead is not None:
                    raise self._worker_died(dead) from None
                dead = next((worker for worker, proc in enumerate(self._procs)
                             if not proc.is_alive()), None)
                if dead is None and time.monotonic() >= deadline:
                    raise PoolError(
                        f"no pool result within {timeout}s "
                        f"({self._inflight} batches in flight)"
                    ) from None
                continue
            self._handle_control(message)
            return message

    def _handle_control(self, message):
        """Process control traffic; True when ``message`` was control."""
        kind = message[0]
        if kind == "scores":
            return False
        if kind == "reloaded":
            _, worker_id, generation = message
            acks = self._pending_acks.get(generation)
            if acks is not None:
                acks.discard(worker_id)
                if not acks:
                    del self._pending_acks[generation]
                    self._retire_generations(keep=generation)
            return True
        if kind == "error":
            raise PoolError(f"worker {message[1]} failed:\n{message[2]}")
        if kind == "stopped":
            return True
        raise PoolError(f"unknown pool result {kind!r}")  # pragma: no cover

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
            if any(g <= generation for g in self._pending_acks):
                continue  # pragma: no cover - defensive; acks are ordered
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
