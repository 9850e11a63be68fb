"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper builds on TensorFlow, which is unavailable here, so we implement a
small define-by-run autograd engine.  A :class:`Tensor` wraps a float64
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` on a scalar result propagates gradients to every
tensor created with ``requires_grad=True``.

Every graph op — elementwise, shape, gather and the fused layer and loss
kernels alike — is an entry of :data:`PRIMITIVES`: one forward and one
VJP, run by eager execution here and by compiled replay
(:mod:`repro.nn.compile`), and :func:`_apply` is the one site that records
a node.  The ops support numpy broadcasting; gradients flowing into a
broadcast operand are reduced back to the operand's shape (see
:func:`unbroadcast`).  Every entry's VJP is verified against central
finite differences in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from collections.abc import Callable
from contextvars import ContextVar

import numpy as np

from ..tooling import sanitizer as _sanitizer
from ..utils import profiling
from . import _tracing
from .sparse import SparseGrad, accumulate_grad, sparse_grads_enabled

__all__ = [
    "Tensor",
    "Primitive",
    "PRIMITIVES",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
]

# Whether operations record the autodiff graph.  A ContextVar rather than a
# module global so that nested ``no_grad()`` blocks restore correctly even
# under exceptions, and so one thread (or async task) entering ``no_grad``
# cannot leak the disabled state into another.
_GRAD_ENABLED = ContextVar("repro_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (for inference)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled():
    """Return whether operations are currently recorded for autodiff."""
    return _GRAD_ENABLED.get()


def unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after a broadcast forward pass.

    numpy broadcasting may (a) prepend dimensions and (b) stretch size-1
    dimensions.  The adjoint of broadcasting is summation over exactly those
    axes.
    """
    if grad.shape == shape:
        return grad
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    stretched = tuple(
        axis
        for axis, size in enumerate(shape)
        if size == 1 and grad.shape[axis] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad


def _coerce(value):
    """Return ``value`` as a float64 ndarray (scalars allowed)."""
    if isinstance(value, Tensor):
        raise TypeError("pass Tensor directly, do not coerce")
    return np.asarray(value, dtype=np.float64)


def as_tensor(value, requires_grad=False):
    """Wrap ``value`` in a :class:`Tensor` unless it already is one."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; stored as float64.
    requires_grad:
        When true, :meth:`backward` accumulates into :attr:`grad`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_version",
        "_op",
        "_saved_versions",
        "_stack",
        "__weakref__",
    )

    def __init__(self, data, requires_grad=False):
        self.data = _coerce(data) if not isinstance(data, np.ndarray) else data.astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        # Sanitizer state (see repro.tooling.sanitizer): _version counts
        # in-place mutations of ``data``; the rest is populated per node
        # only while sanitize()/anomaly_mode() is active.
        self._version = 0
        self._op = None
        self._saved_versions = None
        self._stack = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self):
        """Return the underlying array (no copy)."""
        return self.data

    def item(self):
        """Return the single element of a scalar tensor as a float."""
        return float(self.data)

    def detach(self):
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        """Clear the accumulated gradient."""
        self.grad = None

    def bump_version(self):
        """Record an in-place mutation of this tensor's buffer.

        Every code path that mutates ``data`` without rebinding it
        (optimizer steps, PS-worker row writes, the in-place state ops)
        must call this so graphs recorded under
        :func:`repro.tooling.sanitize` can detect stale saved buffers.
        """
        self._version += 1

    # ------------------------------------------------------------------
    # Graph construction (nodes are made by ``_apply`` below)
    # ------------------------------------------------------------------
    def backward(self, grad=None):
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (the tensor must then be a scalar, which is
        the common "loss.backward()" case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        topo_order = []
        visited = set()
        stack = [(self, False)]
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

        grads = {id(self): grad}
        for node in reversed(topo_order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaves keep sparse gradients sparse: optimizers have a
                # row-wise fast path, and densifying here would defeat it.
                if node.requires_grad:
                    node.grad = (
                        node_grad
                        if node.grad is None
                        else accumulate_grad(node.grad, node_grad)
                    )
                continue
            if isinstance(node_grad, SparseGrad):
                # Interior nodes expect dense arrays in their backward fns.
                _sanitizer.note_densify("Tensor.backward.interior_node")
                node_grad = node_grad.to_dense()
            if node._saved_versions is not None:
                _sanitizer.check_versions(node)
            parent_grads = node._backward(node_grad)
            if _sanitizer._ANOMALY:
                _sanitizer.check_backward_grads(node, parent_grads)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = accumulate_grad(grads[key], parent_grad)
                else:
                    grads[key] = parent_grad

    # ------------------------------------------------------------------
    # Table primitives (forward and VJP live in PRIMITIVES below)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return _apply("add", self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _apply("sub", self, as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        return _apply("mul", self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _apply("div", self, as_tensor(other))

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __neg__(self):
        return _apply("neg", self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return _apply("pow", self, exponent=exponent)

    def __matmul__(self, other):
        """Matrix product; supports batched operands (ndim >= 2)."""
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires ndim >= 2 operands")
        return _apply("matmul", self, other)

    def exp(self):
        return _apply("exp", self)

    def log(self):
        return _apply("log", self)

    def sqrt(self):
        return _apply("sqrt", self)

    def tanh(self):
        return _apply("tanh", self)

    def sigmoid(self):
        return _apply("sigmoid", self)

    def relu(self):
        return _apply("relu", self)

    def softplus(self):
        """Numerically stable log(1 + exp(x)); gradient is sigmoid(x)."""
        return _apply("softplus", self)

    def abs(self):
        return _apply("abs", self)

    def sum(self, axis=None, keepdims=False):
        return _apply("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = 1
            for ax in axis:
                count *= self.data.shape[ax]
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", self, shape=shape)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return _apply("transpose", self, axes=axes)

    def swapaxes(self, axis_a, axis_b):
        return _apply("swapaxes", self, axes=(axis_a, axis_b))

    def __getitem__(self, index):
        return _apply("getitem", self, index=index)

    # ------------------------------------------------------------------
    # Comparisons (return plain numpy, never differentiable)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)


def _stable_sigmoid(x, out=None):
    """Sigmoid computed without overflow for large |x|, branch-free.

    With ``e = exp(-|x|)`` the two overflow-safe forms are ``1 / (1 + e)``
    for ``x >= 0`` and ``e / (1 + e)`` below; both are computed and the
    first overwrites the second where ``x >= 0``.  ``out`` may be ``x``.
    """
    positive = x >= 0  # before ``out`` is written: it may alias ``x``
    e = np.absolute(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = np.add(e, 1.0)
    out = np.divide(e, denominator, out=e if out is None else out)
    np.divide(1.0, denominator, out=out, where=positive)
    return out


@dataclasses.dataclass(frozen=True)
class Primitive:
    """One differentiable op, written once for eager execution and replay.

    ``forward(*inputs, out=None, **aux)`` returns the result, written into
    ``out`` when a buffer is given (a plain ufunc is its own forward).
    ``vjp(g, out, *inputs, needs, **aux)`` returns one gradient per input,
    ``None`` where ``needs`` is false.  ``aux`` holds the op's static
    arguments (an axis, an activation, gather indices).  Eager execution
    calls both on fresh arrays, :mod:`repro.nn.compile` on its
    preallocated buffers — the same function, so the same bits.
    """

    name: str
    forward: Callable
    vjp: Callable


def _apply(name, *inputs, **aux):
    """Run primitive ``name`` eagerly: the one site that records a graph node.

    ``name`` is the node's kind — the sanitizer's name for it and the
    tracer's record kind; ``aux`` is what a compiled replay passes the
    entry again.
    """
    prim = PRIMITIVES[name]
    arrays = [t.data for t in inputs]
    # asarray: a 0-d result comes back as a numpy scalar, and the node's
    # buffer must be the very array its VJP reads.
    data = np.asarray(prim.forward(*arrays, **aux))
    track = _GRAD_ENABLED.get() and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        def backward(g):
            needs = tuple(t.requires_grad for t in inputs)
            return prim.vjp(g, data, *arrays, needs=needs, **aux)

        out._parents = inputs
        out._backward = backward
    if _sanitizer._ACTIVE:
        # Sanitizer/anomaly bookkeeping: saved operand versions, op
        # name, creation stack, forward NaN/Inf check.
        _sanitizer.on_node_created(out, inputs, name)
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(out, name, inputs, **aux)
    return out


def _into(out, result):
    """``result``, copied into ``out`` when a buffer is given."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


def _add_vjp(g, out, a, b, needs):
    return (unbroadcast(g, a.shape) if needs[0] else None,
            unbroadcast(g, b.shape) if needs[1] else None)


def _sub_vjp(g, out, a, b, needs):
    return (unbroadcast(g, a.shape) if needs[0] else None,
            unbroadcast(-g, b.shape) if needs[1] else None)


def _mul_vjp(g, out, a, b, needs):
    return (unbroadcast(g * b, a.shape) if needs[0] else None,
            unbroadcast(g * a, b.shape) if needs[1] else None)


def _div_vjp(g, out, a, b, needs):
    return (unbroadcast(g / b, a.shape) if needs[0] else None,
            unbroadcast(-g * a / (b ** 2), b.shape) if needs[1] else None)


def _matmul_vjp(g, out, a, b, needs):
    return (
        unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
        if needs[0] else None,
        unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
        if needs[1] else None,
    )


def _pow_forward(x, out=None, *, exponent):
    # ``**`` (not np.power) so numpy's scalar-exponent fast paths
    # (square, sqrt, reciprocal) apply; np.power would change the bits.
    return _into(out, x ** exponent)


def _relu_forward(x, out=None):
    return np.multiply(x, x > 0.0, out=out)


def _softplus_forward(x, out=None):
    return np.add(np.maximum(x, 0.0), np.log1p(np.exp(-np.abs(x))), out=out)


def _sum_forward(x, out=None, *, axis, keepdims):
    return _into(out, x.sum(axis=axis, keepdims=keepdims))


def _sum_vjp(g, out, x, needs, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
    return (np.broadcast_to(g, x.shape).copy(),)


def _leaky_relu_forward(x, out=None, *, negative_slope):
    return np.multiply(x, np.where(x > 0.0, 1.0, negative_slope), out=out)


def _reshape_forward(x, out=None, *, shape):
    return _into(out, x.reshape(shape))


def _transpose_forward(x, out=None, *, axes):
    return _into(out, x.transpose(axes))


def _swapaxes_forward(x, out=None, *, axes):
    return _into(out, np.swapaxes(x, *axes))


def _getitem_forward(x, out=None, *, index):
    return _into(out, x[index])


def _getitem_vjp(g, out, x, needs, index):
    grad = np.zeros_like(x)
    np.add.at(grad, index, g)
    return (grad,)


def _concat_forward(*xs, out=None, axis):
    return np.concatenate(xs, axis=axis, out=out)


def _concat_vjp(g, out, *xs, needs, axis):
    # Views of ``g`` at each input's offsets (what np.split returns),
    # skipping the segments nobody needs.
    axis %= g.ndim
    lead = (slice(None),) * axis
    grads, lo = [], 0
    for x, need in zip(xs, needs):
        hi = lo + x.shape[axis]
        grads.append(g[lead + (slice(lo, hi),)] if need else None)
        lo = hi
    return grads


def _stack_forward(*xs, out=None, axis):
    return np.stack(xs, axis=axis, out=out)


def _stack_vjp(g, out, *xs, needs, axis):
    return [part if need else None
            for part, need in zip(np.moveaxis(g, axis, 0), needs)]


def _embedding_forward(weight, out=None, *, indices):
    start = profiling.tick()
    rows = weight.shape[0]
    # Single scan: reinterpreted as uint64, negative ids land above any
    # table size, so one comparison catches both out-of-range directions.
    if indices.size and (indices.view(np.uint64) >= np.uint64(rows)).any():
        raise IndexError(f"embedding index out of range [0, {rows})")
    result = _into(out, weight[indices])
    profiling.tock("embedding.forward", start, result.nbytes)
    return result


def _embedding_vjp(g, out, weight, needs, indices):
    start = profiling.tick()
    if sparse_grads_enabled():
        grad = SparseGrad.from_lookup(indices, g, weight.shape)
        profiling.tock("embedding.backward.sparse", start, grad.nbytes)
    else:
        grad = np.zeros_like(weight)
        np.add.at(grad, indices, g)
        profiling.tock("embedding.backward.dense", start, grad.nbytes)
    return (grad,)


def _fused_dense_forward(x, weight, *bias, out=None, activation):
    start = profiling.tick()
    z = np.matmul(x, weight, out=out)
    if bias:
        np.add(z, bias[0], out=z)
    if activation == "relu":
        np.maximum(z, 0.0, out=z)
    elif activation == "sigmoid":
        _stable_sigmoid(z, out=z)
    elif activation == "tanh":
        np.tanh(z, out=z)
    profiling.tock("dense.fused_forward", start, z.nbytes)
    return z


def _fused_dense_vjp(g, out, x, weight, *bias, needs, activation):
    start = profiling.tick()
    # The activation derivative comes from the output (relu mask, s(1-s),
    # 1-t²), so the forward keeps no pre-activation buffer.
    if activation == "relu":
        # The mask as 1.0/0.0 floats: one float multiply, no bool cast.
        gz = np.greater(out, 0.0, out=np.empty_like(out))
        gz *= g
    elif activation == "sigmoid":
        gz = g * out
        gz *= 1.0 - out
    elif activation == "tanh":
        gz = np.square(out)
        np.subtract(1.0, gz, out=gz)
        np.multiply(g, gz, out=gz)
    else:
        gz = g
    # An input that needs no gradient (a fixed-feature projection) skips
    # its matmul.  A plain 2-D layer needs no unbroadcast.
    plain = x.ndim == weight.ndim == 2 and (not bias or bias[0].ndim == 1)
    grads = [None] * (2 + len(bias))
    if needs[0]:
        grad = np.matmul(gz, weight.T if plain else weight.swapaxes(-1, -2))
        grads[0] = grad if plain else unbroadcast(grad, x.shape)
    if needs[1]:
        grad = np.matmul(x.T if plain else x.swapaxes(-1, -2), gz)
        grads[1] = grad if plain else unbroadcast(grad, weight.shape)
    if bias and needs[2]:
        # np.add.reduce is the reduction ``sum`` dispatches to: same bits.
        grads[2] = np.add.reduce(gz, axis=0) if plain else unbroadcast(gz, bias[0].shape)
    profiling.tock("dense.fused_backward", start)
    return grads


def _bce_terms(x, y):
    """Per-sample ``softplus(x) - x*y``, with softplus in the overflow-safe form."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) - x * y


def _bce_forward(x, y, *sample_weight, out=None):
    start = profiling.tick()
    weighted = _bce_terms(x, y)
    if sample_weight:
        weighted = weighted * sample_weight[0]
    # ``weighted.mean()`` is this very reduction over the size.
    loss = np.add.reduce(weighted, axis=None) / weighted.size
    profiling.tock("loss.bce_fused_forward", start)
    return _into(out, loss)


def _bce_vjp(g, out, x, y, *sample_weight, needs):
    start = profiling.tick()
    inputs = (x, y) + sample_weight
    shape = x.shape
    agree = y.shape == shape and (not sample_weight or sample_weight[0].shape == shape)
    if not agree:
        shape = np.broadcast_shapes(*[t.shape for t in inputs])
    scale = g / math.prod(shape)
    # Labels are data: their gradient is computed only when asked for.
    grads = [
        scale * (_stable_sigmoid(x) - y) if needs[0] else None,
        scale * (-x) if needs[1] else None,
    ]
    if sample_weight:
        grads = [None if grad is None else grad * sample_weight[0] for grad in grads]
        grads.append(scale * _bce_terms(x, y) if needs[2] else None)
    if not agree:
        # Each term's gradient spans the per-sample terms; reduce it back.
        grads = [None if grad is None
                 else unbroadcast(np.broadcast_to(grad, shape), t.shape)
                 for grad, t in zip(grads, inputs)]
    profiling.tock("loss.bce_fused_backward", start)
    return grads


#: The closed set of primitives — every graph op — keyed by name (the
#: tracer's kind).
#: Masks, signs and scales are recomputed from ``x`` with the forward's own
#: ufuncs rather than saved, so a node has no side buffer replay must rewrite.
PRIMITIVES = {prim.name: prim for prim in (
    Primitive("add", np.add, _add_vjp),
    Primitive("sub", np.subtract, _sub_vjp),
    Primitive("mul", np.multiply, _mul_vjp),
    Primitive("div", np.divide, _div_vjp),
    Primitive("neg", np.negative, lambda g, out, x, needs: (-g,)),
    Primitive("pow", _pow_forward, lambda g, out, x, needs, exponent: (
        g * exponent * x ** (exponent - 1),)),
    Primitive("matmul", np.matmul, _matmul_vjp),
    Primitive("exp", np.exp, lambda g, out, x, needs: (g * out,)),
    Primitive("log", np.log, lambda g, out, x, needs: (g / x,)),
    Primitive("sqrt", np.sqrt, lambda g, out, x, needs: (g / (2.0 * out),)),
    Primitive("tanh", np.tanh, lambda g, out, x, needs: (
        g * (1.0 - out ** 2),)),
    Primitive("sigmoid", _stable_sigmoid, lambda g, out, x, needs: (
        g * out * (1.0 - out),)),
    Primitive("relu", _relu_forward, lambda g, out, x, needs: (
        g * (x > 0.0),)),
    Primitive("softplus", _softplus_forward, lambda g, out, x, needs: (
        g * _stable_sigmoid(x),)),
    Primitive("abs", np.absolute, lambda g, out, x, needs: (g * np.sign(x),)),
    Primitive("sum", _sum_forward, _sum_vjp),
    Primitive("leaky_relu", _leaky_relu_forward,
              lambda g, out, x, needs, negative_slope: (
                  g * np.where(x > 0.0, 1.0, negative_slope),)),
    Primitive("reshape", _reshape_forward, lambda g, out, x, needs, shape: (
        g.reshape(x.shape),)),
    Primitive("transpose", _transpose_forward, lambda g, out, x, needs, axes: (
        g.transpose(np.argsort(axes)),)),
    Primitive("swapaxes", _swapaxes_forward, lambda g, out, x, needs, axes: (
        np.swapaxes(g, *axes),)),
    Primitive("getitem", _getitem_forward, _getitem_vjp),
    Primitive("concat", _concat_forward, _concat_vjp),
    Primitive("stack", _stack_forward, _stack_vjp),
    Primitive("embedding", _embedding_forward, _embedding_vjp),
    Primitive("fused_dense", _fused_dense_forward, _fused_dense_vjp),
    Primitive("bce", _bce_forward, _bce_vjp),
)}
