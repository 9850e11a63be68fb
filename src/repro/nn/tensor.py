"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper builds on TensorFlow, which is unavailable here, so we implement a
small define-by-run autograd engine.  A :class:`Tensor` wraps a float64
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` on a scalar result propagates gradients to every
tensor created with ``requires_grad=True``.

All primitive operations support numpy broadcasting; gradients flowing into
a broadcast operand are reduced back to the operand's shape (see
:func:`unbroadcast`).  Every primitive's backward pass is verified against
central finite differences in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Callable
from contextvars import ContextVar

import numpy as np

from ..tooling import sanitizer as _sanitizer
from . import _tracing
from .sparse import SparseGrad, accumulate_grad

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
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents, backward_fn, op, **aux):
        """Create a result tensor: the one site that records a graph node.

        ``op`` is the node's kind — the sanitizer's name for it and the
        tracer's record kind; ``aux`` is what a compiled replay needs to
        recompute it.
        """
        track = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._parents = tuple(parents)
            out._backward = backward_fn
        if _sanitizer._ACTIVE:
            # Sanitizer/anomaly bookkeeping: saved operand versions, op
            # name, creation stack, forward NaN/Inf check.
            _sanitizer.on_node_created(out, parents, op)
        if _tracing.TRACER is not None:
            _tracing.TRACER.node(out, op, tuple(parents), **aux)
        return out

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
        original = self.shape
        return Tensor._make(
            self.data.reshape(shape),
            (self,),
            lambda g: (g.reshape(original),),
            "reshape", shape=shape,
        )

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        return Tensor._make(
            self.data.transpose(axes),
            (self,),
            lambda g: (g.transpose(inverse),),
            "transpose", axes=axes,
        )

    def swapaxes(self, axis_a, axis_b):
        return Tensor._make(
            np.swapaxes(self.data, axis_a, axis_b),
            (self,),
            lambda g: (np.swapaxes(g, axis_a, axis_b),),
            "swapaxes", axes=(axis_a, axis_b),
        )

    def __getitem__(self, index):
        data = self.data[index]

        def backward(g):
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            return (grad,)

        return Tensor._make(data, (self,), backward, "getitem", index=index)

    # ------------------------------------------------------------------
    # Comparisons (return plain numpy, never differentiable)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)


def _stable_sigmoid(x, out=None):
    """Sigmoid computed without overflow for large |x|."""
    if out is None:
        out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


@dataclasses.dataclass(frozen=True)
class Primitive:
    """One differentiable op, written once for eager execution and replay.

    ``forward(*inputs, out=None, **aux)`` returns the result, written into
    ``out`` when a buffer is given (a plain ufunc is its own forward).
    ``vjp(g, out, *inputs, needs, **aux)`` returns one gradient per input,
    ``None`` where ``needs`` is false.  Eager execution calls both on fresh
    arrays, :mod:`repro.nn.compile` on its preallocated buffers — the same
    function, so the same bits.
    """

    name: str
    forward: Callable
    vjp: Callable


def _apply(name, *inputs, **aux):
    """Run table primitive ``name`` eagerly and record its node."""
    prim = PRIMITIVES[name]
    arrays = [t.data for t in inputs]
    # asarray: a 0-d result comes back as a numpy scalar, and the node's
    # buffer must be the very array its VJP reads.
    data = np.asarray(prim.forward(*arrays, **aux))

    def backward(g):
        needs = tuple(t.requires_grad for t in inputs)
        return prim.vjp(g, data, *arrays, needs=needs, **aux)

    return Tensor._make(data, inputs, backward, name, **aux)


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


#: The closed set of table primitives, keyed by name (the tracer's kind).
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
)}
