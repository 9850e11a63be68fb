"""Parameter server (Section IV-E).

Stores the authoritative model state.  Dense parameters are pulled/pushed
as whole tensors; embedding parameters are accessed *row-wise* so workers
only synchronize the rows their batches touched — the observation the
paper's embedding PS-Worker cache is built on.

The outer update follows Eq. 3: the server receives a worker's delta
``Θ~ − Θ`` and applies it either by plain interpolation (``Θ += β·Δ``) or
through a dedicated server-side optimizer (the industry deployment uses
Adagrad with a dynamic learning rate).
"""

from __future__ import annotations

import numpy as np

from ..nn.optim import make_optimizer
from ..nn.module import Parameter
from . import transport

__all__ = ["ParameterServer"]


class ParameterServer:
    """In-process simulation of the PS role.

    Parameters
    ----------
    state:
        Initial full model state (``{name: ndarray}``).
    embedding_names:
        Names of parameters to treat as row-wise embedding tables.
    outer_lr:
        β of Eq. 3.
    outer_optimizer:
        ``None`` for plain interpolation, or an optimizer name ("adagrad",
        "adam", "sgd") applied to the negated delta as a gradient.
    max_staleness:
        When not ``None``, pushes whose ``base_version`` is more than this
        many versions behind the current state are rejected (bounded
        staleness, the async deployment's guard against zombie workers).
    """

    def __init__(self, state, embedding_names=(), outer_lr=0.5,
                 outer_optimizer=None, max_staleness=None):
        self._state = {name: value.copy() for name, value in state.items()}
        self.embedding_names = frozenset(embedding_names)
        unknown = self.embedding_names - set(self._state)
        if unknown:
            raise KeyError(f"embedding names not in state: {sorted(unknown)}")
        self.outer_lr = outer_lr
        self.max_staleness = max_staleness
        self.version = 0
        self.pull_counts = {"dense": 0, "embedding_rows": 0}
        self.push_counts = {"dense": 0, "embedding_rows": 0}
        #: push request ids already applied (or buffered) — the dedup set
        #: that makes retried/duplicated pushes exactly-once.
        self._applied_push_ids = set()
        self.dedup_hits = 0
        self.stale_rejections = 0
        #: ``{worker_id: last heartbeat tick}`` for the eviction monitor.
        self.heartbeats = {}
        self._snapshot = None
        self._buffered = []
        self._optimizer = None
        if outer_optimizer is not None:
            self._params = {
                name: Parameter(value) for name, value in self._state.items()
            }
            self._optimizer = make_optimizer(
                outer_optimizer, self._params.values(), outer_lr
            )

    # ------------------------------------------------------------------
    # Transport endpoint
    # ------------------------------------------------------------------
    def handle(self, request):
        """Serve one typed transport message (the server's only endpoint).

        Workers never call the pull/push methods below directly any more;
        they send messages through a :class:`~repro.distributed.transport.
        Channel` that lands here.  Pushes are deduplicated by request id
        (retries and duplicated deliveries apply exactly once) and rejected
        when staler than ``max_staleness`` versions.
        """
        if isinstance(request, transport.PullDenseRequest):
            return transport.Response(
                version=self.version, payload=self.pull_dense()
            )
        if isinstance(request, transport.PullRowsRequest):
            rows = self.pull_embedding_rows(request.table, request.ids)
            return transport.Response(version=self.version, payload=rows)
        if isinstance(request, transport.HeartbeatRequest):
            self.heartbeats[request.worker_id] = request.tick
            return transport.Response(version=self.version)
        if isinstance(request, transport.PushRequest):
            return self._handle_push(request)
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _handle_push(self, request):
        if request.request_id in self._applied_push_ids:
            self.dedup_hits += 1
            return transport.Response(version=self.version, duplicate=True)
        if (
            self.max_staleness is not None
            and self.version - request.base_version > self.max_staleness
        ):
            self.stale_rejections += 1
            return transport.Response(
                version=self.version, accepted=False,
                reason=f"stale push: base version {request.base_version} is "
                       f"{self.version - request.base_version} behind "
                       f"(max_staleness={self.max_staleness})",
            )
        # Mark *before* applying: a sync round buffers the delta, but the
        # retry of a timed-out push must still dedup against the buffer.
        self._applied_push_ids.add(request.request_id)
        self._push(request.worker_id, request.dense_delta,
                   request.embedding_deltas)
        return transport.Response(version=self.version)

    # ------------------------------------------------------------------
    # Pulls
    # ------------------------------------------------------------------
    def pull_dense(self):
        """All non-embedding parameters (copies)."""
        self.pull_counts["dense"] += 1
        source = self._snapshot if self._snapshot is not None else self._state
        return {
            name: value.copy()
            for name, value in source.items()
            if name not in self.embedding_names
        }

    def pull_embedding_rows(self, name, ids):
        """Rows ``ids`` of embedding table ``name`` (copies)."""
        if name not in self.embedding_names:
            raise KeyError(f"{name!r} is not an embedding table")
        ids = np.asarray(ids, dtype=np.int64)
        self.pull_counts["embedding_rows"] += len(ids)
        source = self._snapshot if self._snapshot is not None else self._state
        return source[name][ids].copy()

    def full_state(self):
        """The complete authoritative state (for deployment/evaluation)."""
        return {name: value.copy() for name, value in self._state.items()}

    # ------------------------------------------------------------------
    # Pushes
    # ------------------------------------------------------------------
    def begin_sync_round(self):
        """Freeze a snapshot: pulls serve it, pushes buffer until the end.

        This is bulk-synchronous semantics; without it (the default) the
        server is asynchronous — pulls see the latest state immediately.
        """
        if self._snapshot is not None:
            raise RuntimeError("sync round already in progress")
        self._snapshot = {name: value.copy() for name, value in self._state.items()}

    def end_sync_round(self):
        """Apply all buffered deltas, in sender order, and unfreeze.

        Float addition is not associative and worker *processes* push in
        scheduling order, so the barrier fixes the order itself: by
        worker id (arrival order within one sender, and for direct
        :meth:`push_delta` calls, which sort last).
        """
        if self._snapshot is None:
            raise RuntimeError("no sync round in progress")
        self._snapshot = None
        buffered, self._buffered = self._buffered, []
        buffered.sort(key=lambda push: (push[0] is None, push[0]))
        for _, dense_delta, embedding_deltas in buffered:
            self._apply(dense_delta, embedding_deltas)

    def push_delta(self, dense_delta, embedding_deltas):
        """Apply (or buffer, during a sync round) a worker's delta (Eq. 3).

        ``dense_delta``: ``{name: ndarray}``;
        ``embedding_deltas``: ``{name: {row_id: vector}}``.
        """
        self._push(None, dense_delta, embedding_deltas)

    def _push(self, sender, dense_delta, embedding_deltas):
        self.push_counts["dense"] += len(dense_delta)
        self.push_counts["embedding_rows"] += sum(
            len(rows) for rows in embedding_deltas.values()
        )
        if self._snapshot is not None:
            self._buffered.append((sender, dense_delta, embedding_deltas))
            return
        self._apply(dense_delta, embedding_deltas)

    def _apply(self, dense_delta, embedding_deltas):
        if self._optimizer is not None:
            self._apply_with_optimizer(dense_delta, embedding_deltas)
        else:
            self._apply_interpolation(dense_delta, embedding_deltas)
        self.version += 1

    def _apply_interpolation(self, dense_delta, embedding_deltas):
        for name, delta in dense_delta.items():
            self._state[name] = self._state[name] + self.outer_lr * delta
        for name, rows in embedding_deltas.items():
            table = self._state[name]
            for row_id, delta in rows.items():
                table[row_id] = table[row_id] + self.outer_lr * delta

    def _apply_with_optimizer(self, dense_delta, embedding_deltas):
        # Treat -delta as the gradient, as the industry deployment does.
        for name, param in self._params.items():
            param.grad = None
        for name, delta in dense_delta.items():
            self._params[name].grad = -delta
        for name, rows in embedding_deltas.items():
            grad = np.zeros_like(self._state[name])
            for row_id, delta in rows.items():
                grad[row_id] = -delta
            self._params[name].grad = grad
        self._optimizer.step()
        for name, param in self._params.items():
            self._state[name] = param.data

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def optimizer_slots(self):
        """Server-side optimizer slot state (``{}`` for interpolation)."""
        if self._optimizer is None:
            return {}
        return self._optimizer.state_slots()

    def restore(self, state, version, optimizer_slots=None):
        """Reset the authoritative state from a checkpoint.

        Rebinds the outer-optimizer parameters (and their accumulated
        slots) so a resumed run continues bit-for-bit where the
        checkpointed one left off.
        """
        if self._snapshot is not None:
            raise RuntimeError("cannot restore mid sync-round")
        unknown = set(state) ^ set(self._state)
        if unknown:
            raise KeyError(
                f"checkpoint state keys do not match: {sorted(unknown)}"
            )
        self._state = {name: value.copy() for name, value in state.items()}
        self.version = int(version)
        if self._optimizer is not None:
            for name, param in self._params.items():
                # Restoring a checkpoint is a state load, like
                # load_state_dict; the graph is rebuilt afterwards.
                # lint: allow[data-mutation]
                param.data = self._state[name].copy()
                param.bump_version()
            if optimizer_slots:
                self._optimizer.load_state_slots(optimizer_slots)
