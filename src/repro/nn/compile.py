"""Compile-and-replay execution of DN/DR training steps.

MAMDR's inner loops run the *same* computation thousands of times per epoch
(inner steps x domains x DR helper passes), yet the define-by-run engine in
``repro.nn.tensor`` rebuilds the Python graph node-by-node on every step.
At high domain counts that per-op Python dispatch — ``Tensor`` allocation,
closure construction, the backward toposort, optimizer bookkeeping —
dominates wall-clock over the actual (small) numpy math.

This module removes it with a trace-once / replay-many executor:

* **Trace** — the first step for a given input signature runs *eagerly*
  (so it is always correct), while ``repro.nn.tensor._apply`` reports
  every graph node through the ``repro.nn._tracing`` hook.
  Data-dependent constants (dropout masks, softmax max-shifts,
  fixed-feature gathers) are reported too, with enough context to
  regenerate them.
* **Compile** — the recorded graph is flattened into a :class:`Tape`: a
  preallocated forward schedule that recomputes every node's buffer
  *in place* and a backward schedule that runs the VJPs in exactly the
  order ``Tensor.backward`` would have used.  Every op is an entry of
  :data:`repro.nn.tensor.PRIMITIVES` and compiles the same way: the
  entry's forward writes the node's buffer and its VJP reads the env
  slots — the very functions eager runs — so replay is **bitwise
  identical** to eager execution (asserted per-primitive by the
  sanitizer's :func:`repro.tooling.sanitizer.replay_verify` mode).
* **Replay** — subsequent steps with the same signature execute the flat
  schedules: no ``Tensor`` allocation, no per-op dispatch, no toposort —
  then call the optimizer's own ``step()``.

Compiled replay is the training engine: ``train_steps`` (every DN/DR
caller, ``Session.fit``, ``IncrementalTrainer.update``) and the cluster
``Worker`` step through :func:`active_executor`.  :func:`eager_execution`
is the one switch back to eager steps — the oracle replay is compared
against, and what parity tests run on the other side.

Guards and fallback: a step's signature is the batch field shapes/dtypes
plus ``batch.domain`` (for multi-domain models), the train/eval flag and
the sparse-grad toggle; narrow columnar dtypes (uint32 ids, float32
labels) are widened exactly first, so they share a tape with int64/float64
batches.  A new signature triggers a fresh trace (which *is* a correct
eager step); an untraceable step (a node made outside the step, an
embedding gather whose ids are no batch field, non-owned input arrays)
falls back to eager permanently for that signature.  The sanitizer's ``sanitize()`` / ``anomaly_mode()`` disable
compiled execution entirely — those tools need real graphs.

Lifetimes are refcount-only: the model owns its executor, the executor
holds its model weakly and tapes hold parameters, never the model, so a
dropped model frees its tapes without the cyclic collector.

RNG capture: dropout masks are regenerated on replay from the *same*
``numpy.random.Generator`` objects the eager step would have drawn from, so
the stream advances identically and replays are bit-exact.
"""

from __future__ import annotations

import contextlib
import copy as _copylib
import dataclasses
import functools
import operator
import weakref
from contextvars import ContextVar

import numpy as np

from ..tooling import sanitizer as _sanitizer
from ..utils import profiling
from . import _tracing
from .module import Parameter
from .sparse import SparseGrad, accumulate_grad, sparse_grads_enabled
from .tensor import PRIMITIVES

__all__ = [
    "CompileBail",
    "eager_execution",
    "compilation_enabled",
    "StepExecutor",
    "Tape",
    "executor_for",
    "active_executor",
    "eager_step",
]


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------

# ContextVar (not a module global) so nested blocks restore correctly
# under exceptions and cannot leak across threads/tasks.
_COMPILED = ContextVar("repro_compiled_execution", default=True)


@contextlib.contextmanager
def eager_execution():
    """Run every train step eagerly within (compiled replay is the default)."""
    token = _COMPILED.set(False)
    try:
        yield
    finally:
        _COMPILED.reset(token)


def compilation_enabled():
    """Whether train steps should go through the compiled executor.

    The sanitizer's graph modes take priority: they inspect real graphs,
    so any active sanitizer feature forces eager execution.
    """
    return _COMPILED.get() and not _sanitizer._ACTIVE


# ----------------------------------------------------------------------
# Tracer — installed in repro.nn._tracing for the duration of one step
# ----------------------------------------------------------------------

class _Record:
    """One traced primitive node (``out`` set) or auxiliary event."""

    __slots__ = ("kind", "out", "parents", "aux")

    def __init__(self, kind, out, parents, aux):
        self.kind = kind
        self.out = out
        self.parents = parents
        self.aux = aux


class _Tracer:
    """Collects the chronological op/aux stream of one eager step."""

    def __init__(self):
        self.records = []

    def node(self, out, kind, parents, **aux):
        self.records.append(_Record(kind, out, parents, aux))

    def rng_mask(self, keep, rng, rate):
        """A dropout mask drawn from ``rng`` (regenerated on replay)."""
        self.records.append(
            _Record("rng_mask", None, (), {"array": keep, "rng": rng, "rate": rate})
        )

    def reduce_max(self, array, source, axis):
        """A detached ``np.max`` constant (recomputed on replay)."""
        self.records.append(
            _Record("reduce_max", None, (), {"array": array, "source": source, "axis": axis})
        )

    def fixed_gather(self, array, matrix, indices):
        """A frozen-feature row gather (re-gathered on replay)."""
        self.records.append(
            _Record("fixed_gather", None, (),
                    {"array": array, "matrix": matrix, "indices": indices})
        )


class CompileBail(Exception):
    """Raised during compilation when a step cannot be compiled safely.

    Never escapes the executor: the signature is marked eager-only and the
    (already completed, fully correct) eager trace step stands.
    """


# ----------------------------------------------------------------------
# Graph utilities
# ----------------------------------------------------------------------

_VIEW_KINDS = frozenset({"reshape", "transpose", "swapaxes", "getitem"})
_INPUT_FIELDS = ("users", "items", "labels")


def _toposort(root):
    """Exactly ``Tensor.backward``'s DFS post-order (same code, same order).

    Replicating the traversal — rather than approximating it — is what lets
    the compiled backward schedule accumulate gradients in the identical
    order, which float addition requires for bitwise parity.
    """
    topo_order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo_order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo_order


def _grads_equal(a, b):
    """Bitwise equality of two gradients (dense or sparse)."""
    if isinstance(a, SparseGrad) or isinstance(b, SparseGrad):
        if not (isinstance(a, SparseGrad) and isinstance(b, SparseGrad)):
            return False
        return (
            a.shape == b.shape
            and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.values, b.values)
        )
    return np.array_equal(a, b)


# ----------------------------------------------------------------------
# Tape compilation
# ----------------------------------------------------------------------

class _TapeBuilder:
    """Turns one tracer record stream into a :class:`Tape`."""

    def __init__(self, tracer, loss, batch, all_params):
        self.records = tracer.records
        self.loss = loss
        self.batch = batch
        self.all_params = all_params
        self.env = []
        self.slot = {}          # id(tensor) -> env index
        self.keep = []          # tensors kept alive by their slot
        self.param_slots = []   # (Parameter, env index) refreshed per replay
        self.staging = []       # (field name, trace-time array) per replay copyto
        self._staged_ids = {}   # id(array) -> field
        self.forward = []
        self.forward_kinds = []
        self.rngs = []          # dropout generators, in draw order (unique)
        self.node_records = [r for r in self.records if r.out is not None]
        self.recmap = {id(r.out): r for r in self.node_records}
        self.aux_ids = {id(r.aux["array"]): r for r in self.records if r.out is None}
        self.input_ids = {}
        for field in _INPUT_FIELDS:
            arr = getattr(batch, field, None)
            if isinstance(arr, np.ndarray):
                self.input_ids[id(arr)] = field

    # -- slots ----------------------------------------------------------
    def slot_for(self, t):
        key = id(t)
        idx = self.slot.get(key)
        if idx is not None:
            return idx
        idx = len(self.env)
        self.slot[key] = idx
        self.keep.append(t)
        self.env.append(t.data)
        if t._backward is None:
            if isinstance(t, Parameter):
                self.param_slots.append((t, idx))
            else:
                field = self.input_ids.get(id(t.data))
                if field is not None:
                    self.stage(t.data)
                # aux leaves (dropout masks, max-shifts, gathers) and plain
                # constants both live in env as their stable trace buffers.
        return idx

    def stage(self, array):
        """Mark ``array`` as a per-replay input, overwritten from the batch."""
        field = self.input_ids.get(id(array))
        if field is None:
            raise CompileBail("batch-dependent array is not an input field")
        if id(array) in self._staged_ids:
            return
        if array.base is not None or not array.flags.writeable:
            # A view of (say) the dataset table cannot be used as a staging
            # buffer without corrupting its base.
            raise CompileBail("input array is a borrowed view; cannot stage")
        self._staged_ids[id(array)] = field
        self.staging.append((field, array))

    # -- forward schedule ----------------------------------------------
    def build_forward(self):
        for rec in self.records:
            if rec.out is None:
                self.add_aux_kernel(rec)
            else:
                self.add_node_kernel(rec)

    def emit(self, kind, kernel):
        if kernel is not None:
            self.forward.append(kernel)
            self.forward_kinds.append(kind)

    def add_aux_kernel(self, rec):
        kind, aux = rec.kind, rec.aux
        buf = aux["array"]
        if kind == "rng_mask":
            rng, rate = aux["rng"], aux["rate"]
            if not any(r is rng for r in self.rngs):
                self.rngs.append(rng)
            draw = np.empty(buf.shape)
            keep_mask = np.empty(buf.shape, dtype=bool)

            # rng.random(out=draw) consumes the stream exactly like
            # rng.random(shape); >=/ / are the same ufuncs the eager
            # expression lowers to, so the mask is bit-identical.
            def run(buf=buf, rng=rng, rate=rate, draw=draw, keep_mask=keep_mask):
                rng.random(out=draw)
                np.greater_equal(draw, rate, out=keep_mask)
                np.divide(keep_mask, 1.0 - rate, out=buf)

        elif kind == "reduce_max":
            si = self.slot_for(aux["source"])
            axis, env = aux["axis"], self.env

            def run(buf=buf, env=env, si=si, axis=axis):
                np.copyto(buf, np.max(env[si], axis=axis, keepdims=True))

        elif kind == "fixed_gather":
            indices, matrix = aux["indices"], aux["matrix"]
            self.stage(indices)

            def run(buf=buf, matrix=matrix, idx=indices):
                np.copyto(buf, matrix[idx])

        else:  # pragma: no cover - tracer and builder move in lockstep
            raise CompileBail(f"unknown aux record {kind!r}")
        self.emit(kind, run)

    def add_node_kernel(self, rec):
        out = rec.out
        if rec.kind in _VIEW_KINDS:
            parent = rec.parents[0]
            parent_stable = (
                parent._backward is not None or not isinstance(parent, Parameter)
            )
            if parent_stable and np.shares_memory(out.data, parent.data):
                # The output is a live view of an in-place-updated (or
                # constant) buffer; replay needs no work for this node.
                self.slot_for(out)
                return
            if out.data.base is not None:
                # View of a rebindable Parameter buffer (e.g. STAR's
                # ``weight_domain[domain]``): own it and recompute per step.
                # lint: allow[data-mutation] — tracer-owned buffer.
                out.data = np.array(out.data)
        kernel = _fwd_table(self, rec)
        self.slot_for(out)
        self.emit(rec.kind, kernel)

    # -- backward schedule ---------------------------------------------
    def build_backward(self, topo):
        """Symbolically execute ``Tensor.backward`` over the traced graph.

        Cells play the role of the eager ``grads`` dict; first-write vs.
        accumulate is static because the traversal order is.
        """
        cells = {id(self.loss): 0}
        ncells = 1
        steps, step_kinds, leaf_cells = [], [], []
        for node in reversed(topo):
            ci = cells.pop(id(node), None)  # mirror grads.pop(...)
            if ci is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    leaf_cells.append((node, ci))
                continue
            targets = []
            for parent in node._parents:
                if not parent.requires_grad:
                    targets.append(None)
                    continue
                pci = cells.get(id(parent))
                if pci is None:
                    pci = ncells
                    ncells += 1
                    cells[id(parent)] = pci
                    targets.append((pci, True))
                else:
                    targets.append((pci, False))
            rec = self.recmap[id(node)]
            steps.append(_backward_step(self, rec, ci, targets))
            step_kinds.append(rec.kind)
        return steps, step_kinds, leaf_cells, ncells

    def build(self):
        loss = self.loss
        if loss.data.size != 1 or not loss.requires_grad:
            raise CompileBail("loss is not a scalar graph output")
        topo = _toposort(loss)
        for node in topo:
            if node._backward is not None and id(node) not in self.recmap:
                raise CompileBail("graph contains an untraced primitive")
        self.build_forward()
        steps, step_kinds, leaf_cells, ncells = self.build_backward(topo)
        if not leaf_cells:
            raise CompileBail("no trainable leaves reached by the loss")
        return Tape(
            env=self.env,
            param_slots=self.param_slots,
            staging=self.staging,
            forward=self.forward,
            forward_kinds=self.forward_kinds,
            backward=steps,
            backward_kinds=step_kinds,
            leaf_cells=leaf_cells,
            ncells=ncells,
            seed=np.ones_like(loss.data),
            loss_buf=loss.data,
            all_params=self.all_params,
            rngs=self.rngs,
            node_records=self.node_records,
        )


# ----------------------------------------------------------------------
# Kernels.
#
# Every node runs its table entry (repro.nn.tensor.PRIMITIVES): a forward
# kernel reruns the entry's forward into the node's trace-time buffer *in
# place*, and a backward step runs the entry's VJP over the env slots.
# Both are the very functions eager execution ran, so replay is bitwise
# eager by construction, and nothing captures a buffer the forward
# schedule rewrites.
# ----------------------------------------------------------------------

def _bind(b, rec, fn, **static):
    """``(fn, gather)`` for one node: ``fn`` with the node's aux and
    ``static`` bound once, and ``gather(env)``, the tuple of its parents'
    env arrays (one ``itemgetter`` call)."""
    fn = functools.partial(fn, **rec.aux, **static)
    slots = [b.slot_for(p) for p in rec.parents]
    if len(slots) > 1:
        return fn, operator.itemgetter(*slots)
    (slot,) = slots

    def gather(env):
        return (env[slot],)

    return fn, gather


def _backward_step(b, rec, in_cell, targets):
    """One compiled backward step: the entry's VJP + static scatter.

    ``needs`` is static: a target is ``None`` exactly when eager's
    ``requires_grad`` check would skip that parent.  The dynamic
    ``None``/sparse guards mirror ``Tensor.backward`` exactly: interior
    sparse grads densify before the VJP, ``None`` parent grads are
    skipped, and the first *non-None* contribution to a cell assigns while
    later ones accumulate — in the same order the eager traversal would.
    """
    vjp, gather = _bind(b, rec, PRIMITIVES[rec.kind].vjp,
                        needs=tuple(t is not None for t in targets))
    env, buf = b.env, rec.out.data
    writes = [(i,) + t for i, t in enumerate(targets) if t is not None]

    def run(cells):
        grad_in = cells[in_cell]
        if grad_in is None:
            return
        if isinstance(grad_in, SparseGrad):
            # lint: allow[dense-grad-materialization] — dense-only replay.
            grad_in = grad_in.to_dense()
        parent_grads = vjp(grad_in, buf, *gather(env))
        for i, ci, first in writes:
            grad = parent_grads[i]
            if grad is None:
                continue
            if first or cells[ci] is None:
                cells[ci] = grad
            else:
                cells[ci] = accumulate_grad(cells[ci], grad)

    return run


def _fwd_table(b, rec):
    """The entry's forward, writing the node's buffer *in place*.

    An aux array that is a batch field (an embedding's ids, a gather
    index) is staged, so each replay reads the current batch; an
    embedding whose ids are no batch field bails.
    """
    for value in rec.aux.values():
        if isinstance(value, np.ndarray) and (
            rec.kind == "embedding" or id(value) in b.input_ids
        ):
            b.stage(value)
    forward, gather = _bind(b, rec, PRIMITIVES[rec.kind].forward,
                            out=rec.out.data)
    env = b.env

    def run():
        forward(*gather(env))

    return run


# ----------------------------------------------------------------------
# Tape
# ----------------------------------------------------------------------

class Tape:
    """A compiled training step: flat forward and backward schedules."""

    def __init__(self, env, param_slots, staging, forward, forward_kinds,
                 backward, backward_kinds, leaf_cells, ncells, seed,
                 loss_buf, all_params, rngs, node_records):
        self._env = env
        self._param_slots = param_slots
        self._staging = staging
        self._forward = forward
        self._forward_kinds = forward_kinds
        self._backward = backward
        self._backward_kinds = backward_kinds
        self._leaf_cells = leaf_cells
        self._ncells = ncells
        self._seed = seed
        self._loss_buf = loss_buf
        self._all_params = all_params
        self._rngs = rngs
        self._node_records = node_records

    # -- execution ------------------------------------------------------
    def _run(self, batch):
        env = self._env
        for param, idx in self._param_slots:
            env[idx] = param.data
        for field, buf in self._staging:
            np.copyto(buf, getattr(batch, field))
        profiled = profiling.is_active()
        if profiled:
            for kind, kernel in zip(self._forward_kinds, self._forward):
                start = profiling.tick()
                kernel()
                profiling.tock("tape.fwd." + kind, start)
        else:
            for kernel in self._forward:
                kernel()
        cells = [None] * self._ncells
        cells[0] = self._seed
        for param in self._all_params:
            param.grad = None
        if profiled:
            for kind, step in zip(self._backward_kinds, self._backward):
                start = profiling.tick()
                step(cells)
                profiling.tock("tape.bwd." + kind, start)
        else:
            for step in self._backward:
                step(cells)
        for leaf, ci in self._leaf_cells:
            leaf.grad = cells[ci]
        return cells

    def replay(self, batch, optimizer):
        """One full training step as a flat replay; returns the loss."""
        self._run(batch)
        optimizer.step()
        return float(self._loss_buf)

    # -- verification ---------------------------------------------------
    def replay_verified(self, batch, optimizer, model):
        """Replay, then re-run the step eagerly and compare **bitwise**.

        Every primitive's forward buffer and every leaf gradient must match
        exactly; the first mismatch raises
        :class:`~repro.tooling.sanitizer.ReplayMismatchError` naming the op.
        The optimizer is applied once (after verification), so a verified
        step advances training exactly like a normal one.
        """
        rng_states = [
            (rng, _copylib.deepcopy(rng.bit_generator.state)) for rng in self._rngs
        ]
        cells = self._run(batch)
        snapshots = [rec.out.data.copy() for rec in self._node_records]
        replay_grads = [(leaf, cells[ci]) for leaf, ci in self._leaf_cells]
        for rng, state in rng_states:
            rng.bit_generator.state = state

        tracer = _Tracer()
        _tracing.TRACER = tracer
        try:
            loss = model.loss(batch)
            model.zero_grad()
            loss.backward()
        finally:
            _tracing.TRACER = None

        reference = [r for r in tracer.records if r.out is not None]
        if len(reference) != len(self._node_records):
            raise _sanitizer.ReplayMismatchError(
                f"replay structure mismatch: tape has {len(self._node_records)} "
                f"ops, eager step produced {len(reference)}"
            )
        for position, (ref, mine, snap) in enumerate(
            zip(reference, self._node_records, snapshots)
        ):
            if ref.kind != mine.kind:
                raise _sanitizer.ReplayMismatchError(
                    f"replay structure mismatch at op {position}: tape has "
                    f"{mine.kind!r}, eager step ran {ref.kind!r}"
                )
            if not np.array_equal(ref.out.data, snap):
                raise _sanitizer.ReplayMismatchError(
                    f"replay of op {position} ({mine.kind!r}) is not bitwise "
                    f"equal to eager execution (shape {snap.shape})"
                )
        for leaf, grad in replay_grads:
            if not _grads_equal(grad, leaf.grad):
                raise _sanitizer.ReplayMismatchError(
                    f"replayed gradient for leaf of shape {leaf.shape} is not "
                    "bitwise equal to the eager gradient"
                )
        optimizer.step()
        return loss.item()


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

def eager_step(model, batch, optimizer):
    """One standard eager training step (the universal fallback)."""
    loss = model.loss(batch)
    model.zero_grad()
    loss.backward()
    optimizer.step()
    return loss.item()


_MISSING = object()


def _widened(batch):
    """``batch`` with narrow columnar dtypes cast to int64 ids / float64 labels.

    The columnar plane stores ids as uint32 and labels as float32; the ops
    widen them anyway (``F.embedding``'s int64 ``asarray``, ``Tensor``'s
    float64), but into fresh arrays the tape builder cannot stage.  Safe
    casts are exact, so the widened batch computes the same bits.
    """
    wide = {}
    for field, dtype in zip(_INPUT_FIELDS, (np.int64, np.int64, np.float64)):
        array = getattr(batch, field)
        if array.dtype != dtype and np.can_cast(array.dtype, dtype):
            wide[field] = array.astype(dtype)
    return dataclasses.replace(batch, **wide) if wide else batch


class StepExecutor:
    """Per-model cache of compiled tapes, keyed by step signature.

    The optimizer is *not* part of the key: it is passed per call and its
    own ``step()`` runs after each replay, because DR creates a fresh inner
    optimizer for every helper pass over the same graph.  The model is held
    weakly — it owns this executor (:func:`executor_for`), and a strong
    back-edge would make every model, its tapes and their buffers a cycle
    that only the cyclic collector frees.
    """

    #: signature-cache bound: past this, unseen signatures run eagerly
    #: (tracing every odd-shaped batch would cost more than it saves).
    max_tapes = 32

    def __init__(self, model):
        self._model = weakref.ref(model)
        self._params = list(model.parameters())
        self._tapes = {}
        self.traces = 0
        self.replays = 0
        self.eager_steps = 0

    def _signature(self, model, batch):
        return (
            batch.users.shape, batch.users.dtype.str,
            batch.items.shape, batch.items.dtype.str,
            batch.labels.shape, batch.labels.dtype.str,
            batch.domain if getattr(model, "multi_domain", True) else None,
            model.training,
            sparse_grads_enabled(),
        )

    def step(self, batch, optimizer):
        """Run one training step, compiled when possible; returns the loss."""
        model = self._model()
        if _sanitizer._ACTIVE or _tracing.TRACER is not None:
            self.eager_steps += 1
            return eager_step(model, batch, optimizer)
        batch = _widened(batch)
        signature = self._signature(model, batch)
        tape = self._tapes.get(signature, _MISSING)
        if tape is _MISSING:
            if len(self._tapes) >= self.max_tapes:
                self.eager_steps += 1
                return eager_step(model, batch, optimizer)
            tape, loss_value = self._trace_step(model, batch, optimizer)
            self._tapes[signature] = tape
            return loss_value
        if tape is None:
            self.eager_steps += 1
            return eager_step(model, batch, optimizer)
        self.replays += 1
        if _sanitizer._REPLAY_VERIFY:
            return tape.replay_verified(batch, optimizer, model)
        return tape.replay(batch, optimizer)

    def tape_for(self, batch, optimizer):
        """The compiled :class:`Tape` for ``batch``'s signature, or ``None``.

        Traces once when the signature is unseen — the trace is a *real*
        training step (parameters, optimizer slots and RNG streams all
        advance), so callers that only want the tape must snapshot and
        restore around it.  Returns ``None`` for eager-only signatures.
        """
        model = self._model()
        batch = _widened(batch)
        signature = self._signature(model, batch)
        if signature not in self._tapes:
            if len(self._tapes) >= self.max_tapes:
                return None
            tape, _ = self._trace_step(model, batch, optimizer)
            self._tapes[signature] = tape
        return self._tapes[signature]

    def _trace_step(self, model, batch, optimizer):
        tracer = _Tracer()
        _tracing.TRACER = tracer
        try:
            loss = model.loss(batch)
            model.zero_grad()
            loss.backward()
        finally:
            _tracing.TRACER = None
        optimizer.step()
        try:
            tape = _TapeBuilder(tracer, loss, batch, self._params).build()
            self.traces += 1
            profiling.count("compile.trace")
        except CompileBail:
            tape = None
            profiling.count("compile.bail")
        return tape, loss.item()


def executor_for(model):
    """The (cached) :class:`StepExecutor` for ``model``.

    The model owns its executor, so every call site (``train_steps``, the
    incremental trainer) shares one tape cache per model and the cache is
    collected with the model.
    """
    executor = model.__dict__.get("_step_executor")
    if executor is None:
        executor = StepExecutor(model)
        # Not Module.__setattr__: the executor is no parameter or submodule.
        object.__setattr__(model, "_step_executor", executor)
    return executor


def active_executor(model):
    """``executor_for(model)``, or ``None`` under :func:`eager_execution`
    or a sanitizer mode."""
    if not compilation_enabled():
        return None
    return executor_for(model)
