"""Functional building blocks composed from :class:`~repro.nn.tensor.Tensor`.

Everything here is differentiable (where meaningful) and built either from
primitives defined on ``Tensor`` or as new primitives with hand-written
backward passes (``concat``, ``embedding``), all covered by gradcheck tests.

Hot-path ops come in fused single-node form: ``embedding`` emits a
:class:`~repro.nn.sparse.SparseGrad` instead of a dense full-table scatter,
``bce_with_logits`` computes forward and backward in closed form instead of
recording a four-op graph, and ``fused_dense`` collapses matmul + bias +
activation into one node.  The unfused compositions are kept as
``*_reference`` functions for parity tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..utils import profiling
from . import _tracing, sparse
from .tensor import Tensor, _stable_sigmoid, as_tensor, unbroadcast

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
    "leaky_relu",
    "softmax",
    "dropout",
    "concat",
    "stack",
    "embedding",
    "fixed_gather",
    "linear",
    "fused_dense",
    "bce_with_logits",
    "bce_with_logits_reference",
    "mse_loss",
    "l2_penalty",
]


def relu(x):
    return as_tensor(x).relu()


def sigmoid(x):
    return as_tensor(x).sigmoid()


def tanh(x):
    return as_tensor(x).tanh()


def softplus(x):
    return as_tensor(x).softplus()


def leaky_relu(x, negative_slope=0.01):
    x = as_tensor(x)
    mask = x.data > 0.0
    scale = np.where(mask, 1.0, negative_slope)
    out = Tensor._make(x.data * scale, (x,), lambda g: (g * scale,))
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(out, "leaky_relu", (x,), scale=scale,
                             negative_slope=negative_slope)
    return out


def softmax(x, axis=-1):
    """Softmax along ``axis``, numerically stabilized with a detached max."""
    x = as_tensor(x)
    shift_by = np.max(x.data, axis=axis, keepdims=True)
    if _tracing.TRACER is not None:
        # The max is data-dependent; record it so a compiled replay
        # recomputes it instead of replaying a stale constant.
        _tracing.TRACER.reduce_max(shift_by, x, axis)
    shift = x - shift_by
    exp = shift.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def dropout(x, rate, rng, training=True):
    """Inverted dropout: zero activations with probability ``rate``.

    ``rng`` must be a ``numpy.random.Generator``; passing it explicitly keeps
    every training run reproducible.
    """
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    if _tracing.TRACER is not None:
        # Capture the RNG stream so a compiled replay draws the identical
        # mask sequence this eager step would have drawn.
        _tracing.TRACER.rng_mask(keep, rng, rate)
    return x * keep


def concat(tensors, axis=-1):
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, boundaries, axis=axis))

    out = Tensor._make(data, tuple(tensors), backward)
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(out, "concat", tuple(tensors), axis=axis)
    return out


def stack(tensors, axis=0):
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    out = Tensor._make(data, tuple(tensors), backward)
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(out, "stack", tuple(tensors), axis=axis)
    return out


def embedding(weight, indices):
    """Gather rows ``indices`` from ``weight`` ([n, d] -> [len(indices), d]).

    The backward pass produces a :class:`~repro.nn.sparse.SparseGrad`
    holding only the touched rows — the sparse-embedding update the paper's
    PS-Worker cache (Section IV-E) is built around — so both gradient
    accumulation and the optimizer step cost O(batch), not O(table).  The
    dense ``np.add.at`` fallback is selected by
    :func:`~repro.nn.sparse.use_sparse_grads` for parity checks.
    """
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)

    def backward(g):
        start = profiling.tick()
        if sparse.sparse_grads_enabled():
            grad = sparse.SparseGrad.from_lookup(indices, g, weight.data.shape)
            profiling.tock("embedding.backward.sparse", start, grad.nbytes)
        else:
            grad = np.zeros_like(weight.data)
            np.add.at(grad, indices, g)
            profiling.tock("embedding.backward.dense", start, grad.nbytes)
        return (grad,)

    start = profiling.tick()
    out = weight.data[indices]
    profiling.tock("embedding.forward", start, out.nbytes)
    node = Tensor._make(out, (weight,), backward)
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(node, "embedding", (weight,), indices=indices)
    return node


def fixed_gather(matrix, indices):
    """Rows ``indices`` of a frozen (non-trainable) feature matrix.

    Returns a graph *leaf*: ``matrix`` is plain numpy and receives no
    gradient.  Compared to writing ``Tensor(matrix[indices])`` inline, this
    helper reports the gather to the tracer, so a compiled replay re-gathers
    with the current batch's ids instead of replaying a stale constant.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(matrix[indices])
    if _tracing.TRACER is not None:
        _tracing.TRACER.fixed_gather(out.data, matrix, indices)
    return out


def linear(x, weight, bias=None):
    """Affine map ``x @ weight + bias`` with [in, out]-shaped weight."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


_FUSED_ACTIVATIONS = ("linear", "relu", "sigmoid", "tanh")


def fused_dense(x, weight, bias=None, activation="linear"):
    """``act(x @ weight + bias)`` as one autodiff node.

    Fusing the affine map and the activation removes two graph nodes (and
    their intermediate full-activation arrays) per Dense layer per step.
    The activation derivative is recovered from the saved *output* (relu
    mask, ``s(1-s)``, ``1-t²``), so no extra forward buffers are retained.
    """
    if activation not in _FUSED_ACTIVATIONS:
        raise ValueError(
            f"unsupported fused activation {activation!r}; "
            f"expected one of {_FUSED_ACTIVATIONS}"
        )
    x = as_tensor(x)
    weight = as_tensor(weight)
    if x.ndim < 2 or weight.ndim < 2:
        raise ValueError("fused_dense requires ndim >= 2 operands")
    bias_t = as_tensor(bias) if bias is not None else None

    start = profiling.tick()
    z = np.matmul(x.data, weight.data)
    if bias_t is not None:
        np.add(z, bias_t.data, out=z)
    if activation == "relu":
        out = np.maximum(z, 0.0)
    elif activation == "sigmoid":
        out = _stable_sigmoid(z)
    elif activation == "tanh":
        out = np.tanh(z)
    else:
        out = z
    profiling.tock("dense.fused_forward", start, out.nbytes)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(g):
        start = profiling.tick()
        if activation == "relu":
            gz = g * (out > 0.0)
        elif activation == "sigmoid":
            gz = g * out * (1.0 - out)
        elif activation == "tanh":
            gz = g * (1.0 - out ** 2)
        else:
            gz = g
        # An input that needs no gradient (a fixed-feature projection)
        # skips its matmul.
        grad_x = unbroadcast(
            np.matmul(gz, np.swapaxes(weight.data, -1, -2)), x.shape
        ) if x.requires_grad else None
        grad_w = unbroadcast(
            np.matmul(np.swapaxes(x.data, -1, -2), gz), weight.shape
        )
        profiling.tock("dense.fused_backward", start)
        if bias_t is None:
            return grad_x, grad_w
        return grad_x, grad_w, unbroadcast(gz, bias_t.shape)

    node = Tensor._make(out, parents, backward)
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(node, "fused_dense", parents, activation=activation,
                             saved_out=out)
    return node


def bce_with_logits(logits, labels, sample_weight=None):
    """Mean binary cross entropy on raw logits (numerically stable).

    Uses the identity ``BCE(x, y) = softplus(x) - x*y`` for y in {0, 1},
    which also holds (as the expected cross entropy) for soft labels.

    This is a fused single-node kernel: the forward pass evaluates the
    closed form directly and the backward pass is ``(sigmoid(x) - y) / n``
    — no intermediate softplus/mul/sub/mean graph is recorded.  It matches
    :func:`bce_with_logits_reference` to float64 rounding.
    """
    logits = as_tensor(logits)
    labels = as_tensor(labels)
    x = logits.data
    y = labels.data

    start = profiling.tick()
    # softplus(x) - x*y, with softplus in the overflow-safe form.
    per_sample = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) - x * y
    if sample_weight is not None:
        sw = as_tensor(sample_weight)
        weighted = per_sample * sw.data
        parents = (logits, labels, sw)
    else:
        sw = None
        weighted = per_sample
        parents = (logits, labels)
    count = weighted.size
    out = weighted.mean()
    profiling.tock("loss.bce_fused_forward", start)

    def backward(g):
        start = profiling.tick()
        scale = g / count
        base = _stable_sigmoid(x) - y
        # Labels are data: their gradient is computed only when asked for.
        if sw is None:
            grad_logits = unbroadcast(
                np.broadcast_to(scale * base, weighted.shape), logits.shape
            )
            grad_labels = unbroadcast(
                np.broadcast_to(scale * (-x), weighted.shape), labels.shape
            ) if labels.requires_grad else None
            grads = (grad_logits, grad_labels)
        else:
            grad_logits = unbroadcast(
                np.broadcast_to(scale * base * sw.data, weighted.shape),
                logits.shape,
            )
            grad_labels = unbroadcast(
                np.broadcast_to(scale * (-x) * sw.data, weighted.shape),
                labels.shape,
            ) if labels.requires_grad else None
            grad_weight = unbroadcast(
                np.broadcast_to(scale * per_sample, weighted.shape), sw.shape
            )
            grads = (grad_logits, grad_labels, grad_weight)
        profiling.tock("loss.bce_fused_backward", start)
        return grads

    node = Tensor._make(np.asarray(out), parents, backward)
    if _tracing.TRACER is not None:
        _tracing.TRACER.node(node, "bce", parents, per_sample=per_sample,
                             weighted=weighted, x=x, y=y)
    return node


def bce_with_logits_reference(logits, labels, sample_weight=None):
    """The original composed (4-node) BCE graph, kept for parity tests."""
    logits = as_tensor(logits)
    labels = as_tensor(labels)
    per_sample = logits.softplus() - logits * labels
    if sample_weight is not None:
        per_sample = per_sample * as_tensor(sample_weight)
    return per_sample.mean()


def mse_loss(pred, target):
    """Mean squared error."""
    diff = as_tensor(pred) - as_tensor(target)
    return (diff * diff).mean()


def l2_penalty(params):
    """Sum of squared entries over an iterable of tensors."""
    total = None
    for p in params:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("l2_penalty needs at least one tensor")
    return total
