"""Lane-vectorized replay of compiled training steps.

One CPU core cannot speed up MAMDR's bulk-synchronous rounds by forking
processes — but it can exploit the *same* independence those rounds
expose.  In a sync DN round every worker starts its inner trajectory
from the identical snapshot Θ; in a DR round every target's helper pass
starts from its own ``θ_S + θ_i``.  The trajectories never interact
until the barrier, so ``n`` of them can be replayed as **one** batched
program whose every buffer carries a leading *lane* axis: each ufunc and
matmul dispatches once for all lanes instead of once per lane, amortizing
numpy's per-call overhead (the dominant cost at recommendation-model
sizes) across the whole fleet.

:class:`VectorTape` is built from a compiled :class:`~repro.nn.compile.
Tape` — its chronological trace records and declarative backward plan —
and mirrors every kernel with a batched twin that runs the *identical*
ufunc sequence on ``(n, …)`` arrays:

* elementwise ops are trivially bitwise-equal per lane;
* batched ``matmul`` over a stacked lane axis performs the same per-slice
  GEMMs as ``n`` separate 2-D calls;
* lane-axis-excluded reductions (``add.reduce`` row-wise, bias-gradient
  sums) use the same pairwise summation per lane;
* dropout masks are drawn from ``n`` per-lane ``Generator`` objects so
  each lane consumes exactly the stream its sequential twin would.

Parameters and gradients live in two lane-major ``(n, P)`` arenas; each
(lane, parameter) pair is a reshaped *view* into its row, and the fused
:class:`BatchedAdam`/:class:`BatchedSGD` run the optimizer's elementwise
update chain once over the whole arena — the same collapse the eager
flat-Adam schedule performs per model, now per fleet.

Anything the engine cannot reproduce bit-for-bit — embedding tables,
sparse gradients, lane-varying shapes, ops without a batched twin —
raises :class:`VectorBail`; callers (``repro.distributed.vector``) fall
back to the sequential reference, which is also the parity oracle the
tests compare against bitwise.
"""

from __future__ import annotations

import numpy as np

from ..utils import profiling
from .module import Parameter
from .tensor import _stable_sigmoid

__all__ = [
    "VectorBail",
    "VectorTape",
    "BatchedAdam",
    "BatchedSGD",
    "vector_tape_for",
]


class VectorBail(Exception):
    """The tape cannot be lane-vectorized; use the sequential reference."""


def _lane_view(arena, off, size, shape):
    """A ``(n, *shape)`` view of columns ``off:off+size`` of ``arena``."""
    view = arena[:, off:off + size]
    view = view.reshape((arena.shape[0],) + tuple(shape))
    if not np.shares_memory(view, arena):  # pragma: no cover - layout invariant
        raise VectorBail("parameter slice does not reshape to a view")
    return view


def _expand(arr, batched, lane_ndim):
    """Left-pad a batched operand's per-lane shape with 1s to ``lane_ndim``.

    Eager broadcasting left-pads the smaller operand; with a leading lane
    axis the padding must go *between* the lane axis and the data axes.
    """
    if not batched:
        return arr
    have = arr.ndim - 1
    if have == lane_ndim:
        return arr
    if have > lane_ndim:
        raise VectorBail("operand outranks the output")
    return arr.reshape((arr.shape[0],) + (1,) * (lane_ndim - have) + arr.shape[1:])


# ----------------------------------------------------------------------
# Batched forward kernels — each mirrors the eager/compiled kernel's
# exact ufunc sequence with a leading lane axis.  ``vt._operand`` hands
# back ``(array, is_batched)``: parameters resolve to arena views, staged
# inputs and aux buffers to their batched twins, constants to themselves.
# ----------------------------------------------------------------------

def _vbinary(ufunc):
    def build(vt, rec, buf):
        a, ab = vt._operand(rec.parents[0])
        c, cb = vt._operand(rec.parents[1])
        if not (ab or cb):
            raise VectorBail("binary op over two lane constants")
        lane_nd = rec.out.data.ndim
        a = _expand(a, ab, lane_nd)
        c = _expand(c, cb, lane_nd)

        def run():
            ufunc(a, c, out=buf)

        return run

    return build


def _vunary(ufunc):
    def build(vt, rec, buf):
        a, ab = vt._operand(rec.parents[0])
        if not ab:
            raise VectorBail("unary op over a lane constant")

        def run():
            ufunc(a, out=buf)

        return run

    return build


def _vfwd_pow(vt, rec, buf):
    a, ab = vt._operand(rec.parents[0])
    if not ab:
        raise VectorBail("pow over a lane constant")
    exponent = rec.aux["exponent"]

    def run():
        np.copyto(buf, a ** exponent)

    return run


def _vfwd_matmul(vt, rec, buf):
    a, ab = vt._operand(rec.parents[0])
    c, cb = vt._operand(rec.parents[1])
    if not (ab or cb):
        raise VectorBail("matmul over two lane constants")
    for arr, batched in ((a, ab), (c, cb)):
        if (arr.ndim - 1 if batched else arr.ndim) != 2:
            raise VectorBail("matmul operands must be 2-D per lane")

    def run():
        np.matmul(a, c, out=buf)

    return run


def _vfwd_sigmoid(vt, rec, buf):
    a, ab = vt._operand(rec.parents[0])
    if not ab:
        raise VectorBail("sigmoid over a lane constant")

    def run():
        np.copyto(buf, _stable_sigmoid(a))

    return run


def _vfwd_relu(vt, rec, buf):
    a, ab = vt._operand(rec.parents[0])
    if not ab:
        raise VectorBail("relu over a lane constant")
    mask = np.empty(buf.shape, dtype=rec.aux["mask"].dtype)

    def run():
        np.greater(a, 0.0, out=mask)
        np.multiply(a, mask, out=buf)

    return run


def _vfwd_softplus(vt, rec, buf):
    a, ab = vt._operand(rec.parents[0])
    if not ab:
        raise VectorBail("softplus over a lane constant")

    def run():
        np.copyto(buf, np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a))))

    return run


def _vfwd_sum(vt, rec, buf):
    a, ab = vt._operand(rec.parents[0])
    axis, keepdims = rec.aux["axis"], rec.aux["keepdims"]
    if not ab or not isinstance(axis, int):
        raise VectorBail("sum must reduce a batched operand over one axis")
    ax = axis + 1 if axis >= 0 else axis

    def run():
        np.copyto(buf, a.sum(axis=ax, keepdims=keepdims))

    return run


def _vfwd_concat(vt, rec, buf):
    ops = [vt._operand(p) for p in rec.parents]
    if not all(batched for _, batched in ops):
        raise VectorBail("concat over lane constants")
    arrays = [arr for arr, _ in ops]
    axis = rec.aux["axis"]
    ax = axis + 1 if axis >= 0 else axis

    def run():
        np.concatenate(arrays, axis=ax, out=buf)

    return run


def _vfwd_fused_dense(vt, rec, buf):
    has_bias = len(rec.parents) == 3
    if rec.parents[0].data.ndim != 2 or rec.parents[1].data.ndim != 2:
        raise VectorBail("fused_dense operands must be 2-D per lane")
    x, _ = vt._operand(rec.parents[0])
    w, _ = vt._operand(rec.parents[1])
    activation = rec.aux["activation"]
    bias_e = None
    if has_bias:
        bias, bb = vt._operand(rec.parents[2])
        if rec.parents[2].data.ndim != 1:
            raise VectorBail("fused_dense bias must be 1-D per lane")
        # (n, h) -> (n, 1, h) so each lane's bias broadcasts over its rows
        # exactly like the eager (h,) bias over a (b, h) activation.
        bias_e = bias.reshape((bias.shape[0], 1, bias.shape[1])) if bb else bias
    zbuf = buf if activation == "linear" else np.empty_like(buf)

    def run():
        np.matmul(x, w, out=zbuf)
        if bias_e is not None:
            np.add(zbuf, bias_e, out=zbuf)
        if activation == "relu":
            np.maximum(zbuf, 0.0, out=buf)
        elif activation == "sigmoid":
            np.copyto(buf, _stable_sigmoid(zbuf))
        elif activation == "tanh":
            np.tanh(zbuf, out=buf)

    return run


def _vfwd_bce(vt, rec, buf):
    if len(rec.parents) == 3:
        raise VectorBail("sample-weighted bce")
    per_sample = rec.aux["per_sample"]
    if (rec.parents[0].data.shape != per_sample.shape
            or rec.parents[1].data.shape != per_sample.shape):
        raise VectorBail("broadcasting bce")
    x, xb = vt._operand(rec.parents[0])
    y, _ = vt._operand(rec.parents[1])
    if not xb:
        raise VectorBail("bce logits are a lane constant")
    n = vt.n_lanes
    count = per_sample.size
    t1 = np.empty((n,) + per_sample.shape)
    t2 = np.empty((n,) + per_sample.shape)
    per_b = np.empty((n,) + per_sample.shape)
    flat = per_b.reshape(n, -1)

    def run():
        # max(x,0) + log1p(exp(-|x|)) - x*y, ufunc-for-ufunc as eager;
        # the mean is a per-lane row reduce — the same pairwise summation
        # each lane's flat add.reduce would perform.
        np.absolute(x, out=t1)
        np.negative(t1, out=t1)
        np.exp(t1, out=t1)
        np.log1p(t1, out=t1)
        np.maximum(x, 0.0, out=t2)
        np.add(t2, t1, out=t2)
        np.multiply(x, y, out=t1)
        np.subtract(t2, t1, out=per_b)
        np.add.reduce(flat, axis=-1, out=buf)
        np.divide(buf, count, out=buf)

    return run


_VFWD = {
    "add": _vbinary(np.add),
    "sub": _vbinary(np.subtract),
    "mul": _vbinary(np.multiply),
    "div": _vbinary(np.divide),
    "neg": _vunary(np.negative),
    "exp": _vunary(np.exp),
    "log": _vunary(np.log),
    "sqrt": _vunary(np.sqrt),
    "tanh": _vunary(np.tanh),
    "pow": _vfwd_pow,
    "matmul": _vfwd_matmul,
    "sigmoid": _vfwd_sigmoid,
    "relu": _vfwd_relu,
    "softplus": _vfwd_softplus,
    "sum": _vfwd_sum,
    "concat": _vfwd_concat,
    "fused_dense": _vfwd_fused_dense,
    "bce": _vfwd_bce,
}


# ----------------------------------------------------------------------
# Batched backward kernels — built from the tape's declarative plan
# ``(record, in_cell, targets)``; cells hold batched gradient arrays.
# ----------------------------------------------------------------------

def _first_writes_only(targets):
    return all(t is None or t[1] for t in targets)


def _vbwd_bce(vt, rec, ci, targets):
    if len(rec.parents) == 3:
        raise VectorBail("sample-weighted bce backward")
    lt = targets[0]
    if lt is None or not lt[1] or targets[1] is not None:
        raise VectorBail("unsupported bce gradient targets")
    weighted = rec.aux["weighted"]
    lane_shape = rec.parents[0].data.shape
    if weighted.shape != lane_shape or rec.parents[1].data.shape != lane_shape:
        raise VectorBail("broadcasting bce backward")
    x, xb = vt._operand(rec.parents[0])
    y, _ = vt._operand(rec.parents[1])
    if not xb:
        raise VectorBail("bce logits are a lane constant")
    n = vt.n_lanes
    count = weighted.size
    gx = np.empty((n,) + lane_shape)
    t = np.empty((n,) + lane_shape)
    u = np.empty((n,) + lane_shape)
    mask = np.empty((n,) + lane_shape, dtype=bool)
    scale = np.empty(n)
    scale_e = scale.reshape((n,) + (1,) * len(lane_shape))
    cell = lt[0]

    def run(cells):
        np.divide(cells[ci], count, out=scale)
        np.absolute(x, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)                    # e = exp(-|x|)
        np.add(t, 1.0, out=u)               # 1 + e
        np.divide(t, u, out=t)              # e / (1 + e)      (x < 0 branch)
        np.divide(1.0, u, out=u)            # 1 / (1 + e)      (x >= 0 branch)
        np.greater_equal(x, 0.0, out=mask)
        np.copyto(gx, t)
        np.copyto(gx, u, where=mask)
        np.subtract(gx, y, out=gx)
        np.multiply(gx, scale_e, out=gx)
        cells[cell] = gx

    return run


def _vbwd_fused_dense(vt, rec, ci, targets):
    parents = rec.parents
    x_t, w_t = parents[0], parents[1]
    bias_t = parents[2] if len(parents) == 3 else None
    if x_t.data.ndim != 2 or w_t.data.ndim != 2 or rec.out.data.ndim != 2:
        raise VectorBail("fused_dense backward operands must be 2-D per lane")
    if bias_t is not None and bias_t.data.ndim != 1:
        raise VectorBail("fused_dense bias must be 1-D per lane")
    if not _first_writes_only(targets):
        raise VectorBail("fused_dense gradient accumulation")
    xt, wt = targets[0], targets[1]
    bt = targets[2] if bias_t is not None else None
    x, _ = vt._operand(x_t)
    w, _ = vt._operand(w_t)
    outb, ob = vt._operand(rec.out)
    if not ob:
        raise VectorBail("fused_dense output is a lane constant")
    activation = rec.aux["activation"]
    n = vt.n_lanes
    gz = None if activation == "linear" else np.empty((n,) + rec.out.data.shape)
    tmp = None if activation == "linear" else np.empty((n,) + rec.out.data.shape)
    gx = np.empty((n,) + x_t.data.shape) if xt is not None else None
    gw = np.empty((n,) + w_t.data.shape) if wt is not None else None
    gb = np.empty((n,) + bias_t.data.shape) if bt is not None else None
    wT = w.swapaxes(-1, -2)
    xT = x.swapaxes(-1, -2)

    def run(cells):
        g = cells[ci]
        if activation == "relu":
            np.greater(outb, 0.0, out=tmp)
            np.multiply(g, tmp, out=gz)
            gzz = gz
        elif activation == "sigmoid":
            np.multiply(g, outb, out=gz)
            np.subtract(1.0, outb, out=tmp)
            np.multiply(gz, tmp, out=gz)
            gzz = gz
        elif activation == "tanh":
            np.square(outb, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(g, tmp, out=gz)
            gzz = gz
        else:
            gzz = g
        if xt is not None:
            np.matmul(gzz, wT, out=gx)
            cells[xt[0]] = gx
        if wt is not None:
            np.matmul(xT, gzz, out=gw)
            cells[wt[0]] = gw
        if bt is not None:
            # per-lane rows: eager's axis-0 reduce shifts past the lane axis
            np.add.reduce(gzz, axis=1, out=gb)
            cells[bt[0]] = gb

    return run


def _vbwd_concat(vt, rec, ci, targets):
    if not _first_writes_only(targets):
        raise VectorBail("concat gradient accumulation")
    axis = rec.aux["axis"]
    ndim = rec.out.data.ndim
    if axis < 0:
        axis += ndim
    slices, lo = [], 0
    for parent, target in zip(rec.parents, targets):
        hi = lo + parent.data.shape[axis]
        if target is not None:
            key = (slice(None),) * (axis + 1) + (slice(lo, hi),)
            slices.append((target[0], key))
        lo = hi

    def run(cells):
        g = cells[ci]
        for cell, key in slices:
            cells[cell] = g[key]

    return run


def _vbwd_mul(vt, rec, ci, targets):
    if not _first_writes_only(targets):
        raise VectorBail("mul gradient accumulation")
    outshape = rec.out.data.shape
    pairs = []
    for me, other, target in (
        (rec.parents[0], rec.parents[1], targets[0]),
        (rec.parents[1], rec.parents[0], targets[1]),
    ):
        if target is None:
            continue
        if me.data.shape != outshape:
            raise VectorBail("mul gradient would unbroadcast")
        oarr, ob = vt._operand(other)
        oarr = _expand(oarr, ob, len(outshape))
        pairs.append((oarr, target[0], np.empty((vt.n_lanes,) + outshape)))
    if not pairs:
        raise VectorBail("mul with no gradient targets")

    def run(cells):
        g = cells[ci]
        for oarr, cell, buf in pairs:
            np.multiply(g, oarr, out=buf)
            cells[cell] = buf

    return run


def _vbwd_reshape(vt, rec, ci, targets):
    target = targets[0]
    if target is None or not target[1]:
        raise VectorBail("reshape gradient accumulation")
    shape = (vt.n_lanes,) + rec.parents[0].data.shape
    cell = target[0]

    def run(cells):
        cells[cell] = cells[ci].reshape(shape)

    return run


def _vbwd_add(vt, rec, ci, targets):
    if not _first_writes_only(targets):
        raise VectorBail("add gradient accumulation")
    outshape = rec.out.data.shape
    cells_out = []
    for parent, target in zip(rec.parents, targets):
        if target is None:
            continue
        if parent.data.shape != outshape:
            raise VectorBail("add gradient would unbroadcast")
        cells_out.append(target[0])

    def run(cells):
        g = cells[ci]
        for cell in cells_out:
            cells[cell] = g

    return run


def _vbwd_sub(vt, rec, ci, targets):
    if not _first_writes_only(targets):
        raise VectorBail("sub gradient accumulation")
    outshape = rec.out.data.shape
    plus_cell = minus = None
    if targets[0] is not None:
        if rec.parents[0].data.shape != outshape:
            raise VectorBail("sub gradient would unbroadcast")
        plus_cell = targets[0][0]
    if targets[1] is not None:
        if rec.parents[1].data.shape != outshape:
            raise VectorBail("sub gradient would unbroadcast")
        minus = (targets[1][0], np.empty((vt.n_lanes,) + outshape))

    def run(cells):
        g = cells[ci]
        if plus_cell is not None:
            cells[plus_cell] = g
        if minus is not None:
            cell, buf = minus
            np.negative(g, out=buf)
            cells[cell] = buf

    return run


def _vbwd_neg(vt, rec, ci, targets):
    target = targets[0]
    if target is None or not target[1]:
        raise VectorBail("neg gradient accumulation")
    buf = np.empty((vt.n_lanes,) + rec.out.data.shape)
    cell = target[0]

    def run(cells):
        np.negative(cells[ci], out=buf)
        cells[cell] = buf

    return run


_VBWD = {
    "bce": _vbwd_bce,
    "fused_dense": _vbwd_fused_dense,
    "concat": _vbwd_concat,
    "mul": _vbwd_mul,
    "reshape": _vbwd_reshape,
    "add": _vbwd_add,
    "sub": _vbwd_sub,
    "neg": _vbwd_neg,
}

_VIEW_KINDS = frozenset({"reshape", "transpose", "swapaxes", "getitem"})


# ----------------------------------------------------------------------
# Batched optimizers over the lane-major arenas
# ----------------------------------------------------------------------

class BatchedAdam:
    """Adam over the whole ``(n, P)`` arena — one ufunc chain per step.

    Runs the exact elementwise sequence of the eager ``Adam._update`` (and
    the compiled flat-Adam schedule) with freshly zeroed moments, so ``n``
    lanes update bit-identically to ``n`` independent ``Adam`` instances
    created at the same time.
    """

    #: lanes per chunk of the update chain.  The 13-ufunc sequence touches
    #: six (chunk, P) arrays; past ~32 lanes the full-arena working set
    #: falls out of L2 and every ufunc streams from L3.  Chunking is pure
    #: loop tiling over the lane axis — elementwise ops, so the results
    #: are bitwise identical to one arena-wide pass.
    chunk_lanes = 8

    def __init__(self, vtape, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self._arena = vtape.arena
        self._grads = vtape.grad_arena
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = np.zeros_like(self._arena)
        self._v = np.zeros_like(self._arena)
        chunk = min(self.chunk_lanes, self._arena.shape[0])
        self._t1 = np.empty((chunk,) + self._arena.shape[1:])
        self._t2 = np.empty_like(self._t1)
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        n = self._arena.shape[0]
        chunk = self._t1.shape[0]
        for start in range(0, n, chunk):
            rows = slice(start, min(start + chunk, n))
            size = rows.stop - rows.start
            m, v, g = self._m[rows], self._v[rows], self._grads[rows]
            t1, t2 = self._t1[:size], self._t2[:size]
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=t1)
            np.add(m, t1, out=m)
            np.multiply(v, self.beta2, out=v)
            np.square(g, out=t1)
            np.multiply(t1, 1.0 - self.beta2, out=t1)
            np.add(v, t1, out=v)
            np.divide(m, bias1, out=t1)
            np.divide(v, bias2, out=t2)
            np.sqrt(t2, out=t2)
            np.add(t2, self.eps, out=t2)
            np.multiply(t1, self.lr, out=t1)
            np.divide(t1, t2, out=t1)
            np.subtract(self._arena[rows], t1, out=self._arena[rows])


class BatchedSGD:
    """Plain SGD (no momentum/decay) over the ``(n, P)`` arena."""

    def __init__(self, vtape, lr):
        self._arena = vtape.arena
        self._grads = vtape.grad_arena
        self.lr = lr
        self._t1 = np.empty_like(self._arena)

    def step(self):
        np.multiply(self._grads, self.lr, out=self._t1)
        np.subtract(self._arena, self._t1, out=self._arena)


_BATCHED_OPTIMIZERS = {"adam": BatchedAdam, "sgd": BatchedSGD}


# ----------------------------------------------------------------------
# VectorTape
# ----------------------------------------------------------------------

class VectorTape:
    """``n`` independent replays of one compiled step, batched over lanes."""

    def __init__(self, tape, model, n_lanes):
        if n_lanes < 1:
            raise VectorBail("need at least one lane")
        self.n_lanes = n_lanes
        self._tape_rngs = list(tape._rngs)
        self._lane_rngs = None
        if not tape._trace_records or not tape._backward_plan:
            raise VectorBail("tape carries no trace records")
        certificate = getattr(tape, "certificate", None)
        if certificate is not None and not certificate.certified:
            # The static verifier found a shape/dtype/aliasing problem in
            # the scalar tape; vectorizing it would only batch the bug.
            raise VectorBail(
                f"tape failed static certification: {certificate.bail_reason}"
            )

        # -- lane-major parameter/gradient arenas ------------------------
        named = list(model.named_parameters())
        if not named:
            raise VectorBail("model has no parameters")
        if {id(p) for _, p in named} != set(tape._leaf_param_ids):
            raise VectorBail("tape leaves are not exactly the model parameters")
        for _, param in named:
            if param.data.dtype != np.float64:
                raise VectorBail("non-float64 parameter")
        self._entries = []
        offset = 0
        for name, param in named:
            size = param.data.size
            self._entries.append((name, param, offset, size, param.data.shape))
            offset += size
        self.total_params = offset
        self.arena = np.zeros((n_lanes, offset))
        self.grad_arena = np.empty((n_lanes, offset))
        self._param_views = {}
        self._grad_views = {}
        self._state_views = []
        for name, param, off, size, shape in self._entries:
            pv = _lane_view(self.arena, off, size, shape)
            self._param_views[id(param)] = pv
            self._grad_views[id(param)] = _lane_view(self.grad_arena, off, size, shape)
            self._state_views.append((name, pv))

        # -- batched staging for per-replay batch inputs ------------------
        self._staged_by_id = {}
        self._staging = []
        for field, array in tape._staging:
            buf = np.empty((n_lanes,) + array.shape, dtype=array.dtype)
            self._staged_by_id[id(array)] = buf
            self._staging.append((field, buf))

        # -- batched schedules --------------------------------------------
        self._vmap = {}     # id(tensor) -> (batched array | constant, is_batched)
        self._bufmap = {}   # id(trace aux buffer) -> batched twin
        self._forward = []
        self._forward_kinds = []
        self._loss_b = None
        loss_buf = tape._loss_buf
        for rec in tape._trace_records:
            if rec.out is None:
                self._add_aux(rec)
            else:
                self._add_node(rec, loss_buf)
        if self._loss_b is None:
            raise VectorBail("loss output was not vectorized")

        self._backward = []
        self._backward_kinds = []
        for rec, ci, targets in tape._backward_plan:
            builder = _VBWD.get(rec.kind)
            if builder is None:
                raise VectorBail(f"no batched backward for op {rec.kind!r}")
            self._backward.append(builder(self, rec, ci, targets))
            self._backward_kinds.append(rec.kind)
        self._ncells = tape._ncells
        self._seed = np.ones(n_lanes)
        self._leaf_cells = list(tape._leaf_cells)

    # -- construction helpers ---------------------------------------------
    def _operand(self, t):
        key = id(t)
        cached = self._vmap.get(key)
        if cached is not None:
            return cached
        data = t.data
        if isinstance(t, Parameter):
            view = self._param_views.get(id(t))
            if view is None:
                raise VectorBail("parameter operand is not an arena leaf")
            entry = (view, True)
        else:
            staged = self._staged_by_id.get(id(data))
            if staged is not None:
                entry = (staged, True)
            else:
                aux = self._bufmap.get(id(data))
                entry = (aux, True) if aux is not None else (data, False)
        self._vmap[key] = entry
        return entry

    def _emit(self, kind, kernel):
        self._forward.append(kernel)
        self._forward_kinds.append(kind)

    def _add_aux(self, rec):
        kind, aux = rec.kind, rec.aux
        orig = aux["array"]
        n = self.n_lanes
        if kind == "rng_mask":
            rng, rate = aux["rng"], aux["rate"]
            slot = next(
                (i for i, r in enumerate(self._tape_rngs) if r is rng), None
            )
            if slot is None:  # pragma: no cover - tape invariant
                raise VectorBail("mask rng is not on the tape")
            buf = np.empty((n,) + orig.shape)
            draw = np.empty((n,) + orig.shape)
            keep = np.empty((n,) + orig.shape, dtype=bool)
            self._bufmap[id(orig)] = buf

            def run(self=self, slot=slot, rate=rate, draw=draw, keep=keep,
                    buf=buf):
                rngs = self._lane_rngs[slot]
                for lane, gen in enumerate(rngs):
                    gen.random(out=draw[lane])
                np.greater_equal(draw, rate, out=keep)
                np.divide(keep, 1.0 - rate, out=buf)

        elif kind == "fixed_gather":
            matrix = aux["matrix"]
            idx = self._staged_by_id.get(id(aux["indices"]))
            if idx is None:
                raise VectorBail("gather indices are not staged inputs")
            buf = np.empty((n,) + orig.shape, dtype=orig.dtype)
            self._bufmap[id(orig)] = buf

            def run(buf=buf, matrix=matrix, idx=idx):
                np.copyto(buf, matrix[idx])

        elif kind == "reduce_max":
            source, sb = self._operand(aux["source"])
            axis = aux["axis"]
            if not sb or not isinstance(axis, int):
                raise VectorBail("reduce_max over a lane constant")
            ax = axis + 1 if axis >= 0 else axis
            buf = np.empty((n,) + orig.shape, dtype=orig.dtype)
            self._bufmap[id(orig)] = buf

            def run(buf=buf, source=source, ax=ax):
                np.copyto(buf, np.max(source, axis=ax, keepdims=True))

        else:  # pragma: no cover - tracer and builder move in lockstep
            raise VectorBail(f"unknown aux record {kind!r}")
        self._emit(kind, run)

    def _add_node(self, rec, loss_buf):
        out = rec.out
        n = self.n_lanes
        if rec.kind in _VIEW_KINDS:
            if rec.kind != "reshape":
                raise VectorBail(f"view kind {rec.kind!r} is not vectorizable")
            parent_b, pb = self._operand(rec.parents[0])
            if not pb:
                raise VectorBail("reshape of a lane constant")
            shape = (n,) + out.data.shape
            shaped = parent_b.reshape(shape)
            if np.shares_memory(shaped, parent_b):
                self._vmap[id(out)] = (shaped, True)
                return
            buf = np.empty(shape)

            def run(buf=buf, parent_b=parent_b, shape=shape):
                np.copyto(buf, parent_b.reshape(shape))

            self._vmap[id(out)] = (buf, True)
            self._emit(rec.kind, run)
            return
        builder = _VFWD.get(rec.kind)
        if builder is None:
            raise VectorBail(f"no batched forward for op {rec.kind!r}")
        buf = np.empty((n,) + out.data.shape)
        kernel = builder(self, rec, buf)
        self._vmap[id(out)] = (buf, True)
        self._emit(rec.kind, kernel)
        if out.data is loss_buf:
            self._loss_b = buf

    # -- lane state I/O ----------------------------------------------------
    @property
    def param_names(self):
        return [name for name, _ in self._state_views]

    def set_lane_rngs(self, lane_rngs):
        """Per-lane RNG streams, one list of ``n`` generators per tape RNG."""
        if len(lane_rngs) != len(self._tape_rngs):
            raise ValueError("need one lane-generator list per tape rng")
        for gens in lane_rngs:
            if len(gens) != self.n_lanes:
                raise ValueError("need one generator per lane")
        self._lane_rngs = [list(gens) for gens in lane_rngs]

    def set_lane_rng_states(self, states_per_lane):
        """Seed the lane RNG streams from raw bit-generator states.

        ``states_per_lane[slot][lane]`` is a state dict for the
        ``slot``-th tape RNG on lane ``lane``.  Generators are allocated
        once per (tape, lane count) — this object is cached on the tape —
        and only re-seeded on subsequent rounds, which is much cheaper
        than building ``n_lanes`` fresh generators per round.  The state
        dicts are read, never retained or mutated.
        """
        if len(states_per_lane) != len(self._tape_rngs):
            raise ValueError("need one lane-state list per tape rng")
        if self._lane_rngs is None or any(
            len(gens) != self.n_lanes for gens in self._lane_rngs
        ):
            self._lane_rngs = [
                [
                    # lint: allow[raw-random] — type clone; state injected below.
                    np.random.Generator(type(rng.bit_generator)())
                    for _ in range(self.n_lanes)
                ]
                for rng in self._tape_rngs
            ]
        for gens, states in zip(self._lane_rngs, states_per_lane):
            if len(states) != self.n_lanes:
                raise ValueError("need one state per lane")
            for gen, state in zip(gens, states):
                gen.bit_generator.state = state

    def load_state(self, lane, state):
        """Load ``{name: ndarray}`` into one lane's arena row."""
        row = self.arena[lane]
        for name, _, off, size, _ in self._entries:
            row[off:off + size] = state[name].ravel()

    # -- arena-wide (flat) state algebra -----------------------------------
    # Elementwise ops over the whole (n, P) arena compute the identical
    # per-element values as per-lane per-parameter state algebra, while
    # collapsing n × n_params small-array dispatches into one.

    def flatten_state(self, state):
        """``{name: ndarray}`` → the ``(P,)`` row layout of the arena."""
        flat = np.empty(self.total_params)
        for name, _, off, size, _ in self._entries:
            flat[off:off + size] = state[name].ravel()
        return flat

    def load_rows(self, base_flat, delta_rows=None):
        """Set every lane to ``base (+ its delta row)`` in one dispatch.

        ``base_flat`` is a ``(P,)`` flat state; ``delta_rows`` an optional
        ``(n, P)`` per-lane delta — together the vector twin of loading
        ``state_add(base, delta_lane)`` into each lane.
        """
        if delta_rows is None:
            self.arena[:] = base_flat
        else:
            np.add(base_flat[np.newaxis, :], delta_rows, out=self.arena)

    def delta_rows(self, base_flat, out=None):
        """``(n, P)`` of every lane's ``params − base`` in one dispatch."""
        if out is None:
            out = np.empty_like(self.arena)
        np.subtract(self.arena, base_flat[np.newaxis, :], out=out)
        return out

    def row_state(self, row):
        """A flat ``(P,)`` row as ``{name: ndarray}`` *views* (no copies)."""
        out = {}
        for name, _, off, size, shape in self._entries:
            out[name] = row[off:off + size].reshape(shape)
        return out

    def make_optimizer(self, name, lr):
        cls = _BATCHED_OPTIMIZERS.get(name.lower())
        if cls is None:
            raise VectorBail(f"no batched optimizer for {name!r}")
        return cls(self, lr)

    # -- execution ---------------------------------------------------------
    def replay(self, batches, optimizer):
        """One training step on every lane; returns per-lane losses ``(n,)``."""
        if len(batches) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} lane batches, got {len(batches)}"
            )
        if self._lane_rngs is None and self._tape_rngs:
            raise RuntimeError("set_lane_rngs must be called before replay")
        for field, buf in self._staging:
            for lane, batch in enumerate(batches):
                np.copyto(buf[lane], getattr(batch, field))
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
        if profiled:
            for kind, step in zip(self._backward_kinds, self._backward):
                start = profiling.tick()
                step(cells)
                profiling.tock("tape.bwd." + kind, start)
        else:
            for step in self._backward:
                step(cells)
        for leaf, ci in self._leaf_cells:
            np.copyto(self._grad_views[id(leaf)], cells[ci])
        start = profiling.tick()
        optimizer.step()
        profiling.tock("optim.step", start)
        return self._loss_b.copy()


def vector_tape_for(tape, model, n_lanes):
    """The (cached) :class:`VectorTape` for ``(tape, n_lanes)``.

    A failed build is cached too, so callers bail fast on every round
    instead of re-attempting vectorization per epoch.
    """
    cached = tape._vector_cache.get(n_lanes, _UNBUILT)
    if cached is _UNBUILT:
        try:
            cached = VectorTape(tape, model, n_lanes)
        except VectorBail:
            tape._vector_cache[n_lanes] = None
            raise
        tape._vector_cache[n_lanes] = cached
    if cached is None:
        raise VectorBail("tape is not lane-vectorizable")
    return cached


_UNBUILT = object()
