"""Functional building blocks composed from :class:`~repro.nn.tensor.Tensor`.

Everything here is differentiable (where meaningful) and built from the
primitives of :data:`repro.nn.tensor.PRIMITIVES`: each op below is either
one ``_apply`` call on its table entry (``leaky_relu``, ``concat``,
``stack``, ``embedding``, ``fused_dense``, ``bce_with_logits``) or a
composition of entries; every entry has a finite-difference gradcheck.

Hot-path ops come in fused single-node form: ``embedding`` emits a
:class:`~repro.nn.sparse.SparseGrad` instead of a dense full-table scatter,
``bce_with_logits`` computes forward and backward in closed form instead of
recording a four-op graph, and ``fused_dense`` collapses matmul + bias +
activation into one node.  The unfused compositions are kept as
``*_reference`` functions for parity tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

from . import _tracing
from .tensor import Tensor, _apply, as_tensor

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
    return _apply("leaky_relu", as_tensor(x), negative_slope=negative_slope)


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
    return _apply("concat", *[as_tensor(t) for t in tensors], axis=axis)


def stack(tensors, axis=0):
    """Stack tensors along a new ``axis`` (differentiable)."""
    return _apply("stack", *[as_tensor(t) for t in tensors], axis=axis)


def embedding(weight, indices):
    """Gather rows ``indices`` from ``weight`` ([n, d] -> [len(indices), d]).

    An id outside ``[0, n)`` — negative ones included — raises
    ``IndexError``, in eager execution and in compiled replay alike.  The
    backward pass produces a :class:`~repro.nn.sparse.SparseGrad`
    holding only the touched rows — the sparse-embedding update the paper's
    PS-Worker cache (Section IV-E) is built around — so both gradient
    accumulation and the optimizer step cost O(batch), not O(table).  The
    dense ``np.add.at`` fallback is selected by
    :func:`~repro.nn.sparse.use_sparse_grads` for parity checks.
    """
    indices = np.asarray(indices, dtype=np.int64)
    return _apply("embedding", as_tensor(weight), indices=indices)


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
    bias = () if bias is None else (as_tensor(bias),)
    return _apply("fused_dense", x, weight, *bias, activation=activation)


def bce_with_logits(logits, labels, sample_weight=None):
    """Mean binary cross entropy on raw logits (numerically stable).

    Uses the identity ``BCE(x, y) = softplus(x) - x*y`` for y in {0, 1},
    which also holds (as the expected cross entropy) for soft labels.

    This is a fused single-node kernel: the forward pass evaluates the
    closed form directly and the backward pass is ``(sigmoid(x) - y) / n``
    — no intermediate softplus/mul/sub/mean graph is recorded.  It matches
    :func:`bce_with_logits_reference` to float64 rounding.
    """
    weight = () if sample_weight is None else (as_tensor(sample_weight),)
    return _apply("bce", as_tensor(logits), as_tensor(labels), *weight)


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
