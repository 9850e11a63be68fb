"""Finite-difference gradient checks for every autodiff primitive.

Each check perturbs the input elementwise and compares the analytic
gradient of a scalar loss against central differences.  Hypothesis drives
random shapes and values for the core ops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, functional as F
from repro.nn.tensor import PRIMITIVES

EPS = 1e-6
TOL = 1e-6


def numeric_grad(fn, x, eps=EPS):
    """Central finite differences of scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = grad.ravel()
    x_flat = x.ravel()
    for i in range(x.size):
        original = x_flat[i]
        x_flat[i] = original + eps
        up = fn(x)
        x_flat[i] = original - eps
        down = fn(x)
        x_flat[i] = original
        flat[i] = (up - down) / (2.0 * eps)
    return grad


def check(fn_tensor, x, tol=TOL):
    """Compare analytic and numeric gradients of scalar fn at x."""
    t = Tensor(x.copy(), requires_grad=True)
    out = fn_tensor(t)
    out.backward()
    analytic = t.grad

    def scalar(values):
        return fn_tensor(Tensor(values.copy())).item()

    numeric = numeric_grad(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-4)


RNG = np.random.default_rng(0)


@pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2)])
def test_sum_grad(shape):
    check(lambda t: (t * t).sum(), RNG.normal(size=shape))


def test_add_broadcast_grad():
    x = RNG.normal(size=(3, 4))
    other = Tensor(RNG.normal(size=(4,)))
    check(lambda t: (t + other).sum(), x)
    # gradient w.r.t. the broadcast operand
    base = Tensor(RNG.normal(size=(3, 4)))
    check(lambda t: ((base + t) * (base + t)).sum(), RNG.normal(size=(4,)))


def test_mul_div_grad():
    x = RNG.normal(size=(3, 3)) + 3.0
    other = Tensor(RNG.normal(size=(3, 3)) + 3.0)
    check(lambda t: (t * other).mean(), x)
    check(lambda t: (t / other).mean(), x)
    check(lambda t: (other / t).mean(), x)


def test_pow_neg_grad():
    x = np.abs(RNG.normal(size=(4,))) + 0.5
    check(lambda t: (t ** 3).sum(), x)
    check(lambda t: (-t).sum(), x)


def test_matmul_grad():
    x = RNG.normal(size=(3, 4))
    w = Tensor(RNG.normal(size=(4, 2)))
    check(lambda t: (t @ w).sum(), x)
    a = Tensor(RNG.normal(size=(5, 3)))
    check(lambda t: ((a @ t) ** 2).sum(), x)


def test_batched_matmul_grad():
    x = RNG.normal(size=(2, 3, 4))
    w = Tensor(RNG.normal(size=(2, 4, 3)))
    check(lambda t: (t @ w).sum(), x)
    # broadcast batch dim on the right operand
    w2 = Tensor(RNG.normal(size=(4, 3)))
    check(lambda t: (t @ w2).sum(), x)


@pytest.mark.parametrize("unary", ["exp", "tanh", "sigmoid", "relu",
                                   "softplus", "abs", "sqrt", "log"])
def test_unary_grads(unary):
    if unary in ("sqrt", "log"):
        x = np.abs(RNG.normal(size=(3, 3))) + 0.5
    elif unary in ("relu", "abs"):
        # keep away from the kink at zero
        x = RNG.normal(size=(3, 3))
        x[np.abs(x) < 0.1] = 0.5
    else:
        x = RNG.normal(size=(3, 3))
    check(lambda t: getattr(t, unary)().sum(), x)


def test_reduction_axis_grads():
    x = RNG.normal(size=(3, 4))
    check(lambda t: (t.sum(axis=0) ** 2).sum(), x)
    check(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), x)
    check(lambda t: (t.mean(axis=-1) ** 2).sum(), x)


def test_reshape_transpose_grads():
    x = RNG.normal(size=(2, 6))
    check(lambda t: (t.reshape(3, 4) ** 2).sum(), x)
    check(lambda t: (t.transpose() ** 2).sum(), x)
    y = RNG.normal(size=(2, 3, 4))
    check(lambda t: (t.transpose(1, 0, 2) ** 2).sum(), y)
    check(lambda t: (t.swapaxes(-1, -2) ** 2).sum(), y)


def test_getitem_grad():
    x = RNG.normal(size=(5, 3))
    check(lambda t: (t[1:4] ** 2).sum(), x)
    idx = np.array([0, 2, 2, 4])
    check(lambda t: (t[idx] ** 2).sum(), x)


def test_concat_stack_grads():
    x = RNG.normal(size=(3, 4))
    other = Tensor(RNG.normal(size=(3, 2)))
    check(lambda t: (F.concat([t, other], axis=1) ** 2).sum(), x)
    other2 = Tensor(RNG.normal(size=(3, 4)))
    check(lambda t: (F.stack([t, other2], axis=0) ** 2).sum(), x)
    check(lambda t: (F.stack([other2, t], axis=1) ** 2).sum(), x)


def test_embedding_grad():
    weight = RNG.normal(size=(6, 3))
    idx = np.array([0, 1, 1, 5])
    check(lambda t: (F.embedding(t, idx) ** 2).sum(), weight)


def test_softmax_grad():
    x = RNG.normal(size=(3, 5))
    target = Tensor(RNG.normal(size=(3, 5)))
    check(lambda t: (F.softmax(t, axis=-1) * target).sum(), x)


def test_bce_with_logits_grad():
    x = RNG.normal(size=(8,))
    labels = (RNG.random(8) > 0.5).astype(float)
    check(lambda t: F.bce_with_logits(t, labels), x)
    weights = RNG.random(8) + 0.1
    check(lambda t: F.bce_with_logits(t, labels, sample_weight=weights), x)


def test_leaky_relu_grad():
    x = RNG.normal(size=(4, 4))
    x[np.abs(x) < 0.1] = 0.7
    check(lambda t: F.leaky_relu(t, 0.1).sum(), x)


def test_mse_grad():
    x = RNG.normal(size=(6,))
    target = RNG.normal(size=(6,))
    check(lambda t: F.mse_loss(t, target), x)


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "tanh"])
def test_fused_dense_grad(activation):
    x = RNG.normal(size=(4, 3))
    x[np.abs(x) < 0.1] = 0.5  # keep relu away from its kink
    weight = RNG.normal(size=(3, 2))
    bias = RNG.normal(size=(2,))

    def wrt_x(t):
        return (F.fused_dense(t, Tensor(weight), Tensor(bias),
                              activation=activation) ** 2).sum()

    check(wrt_x, x)

    def wrt_weight(t):
        return (F.fused_dense(Tensor(x), t, Tensor(bias),
                              activation=activation) ** 2).sum()

    check(wrt_weight, weight)

    def wrt_bias_no_bias_path(t):
        return (F.fused_dense(Tensor(x), Tensor(weight), t,
                              activation=activation) ** 2).sum()

    check(wrt_bias_no_bias_path, bias)


# Its own stream, so the inputs of the checks above stay as they were.
TABLE_RNG = np.random.default_rng(1)


def _away_from_kink(shape):
    x = TABLE_RNG.normal(size=shape)
    x[np.abs(x) < 0.1] = 0.5
    return x


MATRIX = Tensor(TABLE_RNG.normal(size=(3, 4)) + 3.0)
BATCHED = Tensor(TABLE_RNG.normal(size=(2, 3, 4)))

# One finite-difference case per table primitive, keyed by its name.  The
# binary cases differentiate through a trainable operand broadcast against
# ``MATRIX`` / ``BATCHED``, on both sides of the op.
TABLE_CASES = {
    "add": (lambda t: ((t + MATRIX) * (MATRIX + t)).sum(), TABLE_RNG.normal(size=(4,))),
    "sub": (lambda t: ((t - MATRIX) * (MATRIX - t)).sum(), TABLE_RNG.normal(size=(4,))),
    "mul": (lambda t: (t * MATRIX * t).sum(), TABLE_RNG.normal(size=(4,))),
    "div": (lambda t: (t / MATRIX + MATRIX / t).sum(),
            np.abs(TABLE_RNG.normal(size=(4,))) + 0.5),
    "neg": (lambda t: (-t * t).sum(), TABLE_RNG.normal(size=(3, 3))),
    "pow": (lambda t: (t ** 3 + t ** 0.5).sum(), np.abs(TABLE_RNG.normal(size=(4,))) + 0.5),
    "matmul": (lambda t: ((BATCHED @ t) @ t.transpose()).sum(), TABLE_RNG.normal(size=(4, 2))),
    "exp": (lambda t: (t.exp() * t).sum(), TABLE_RNG.normal(size=(3, 3))),
    "log": (lambda t: (t.log() * t).sum(), np.abs(TABLE_RNG.normal(size=(3, 3))) + 0.5),
    "sqrt": (lambda t: (t.sqrt() * t).sum(), np.abs(TABLE_RNG.normal(size=(3, 3))) + 0.5),
    "tanh": (lambda t: (t.tanh() * t).sum(), TABLE_RNG.normal(size=(3, 3))),
    "sigmoid": (lambda t: (t.sigmoid() * t).sum(), TABLE_RNG.normal(size=(3, 3))),
    "relu": (lambda t: (t.relu() * t).sum(), _away_from_kink((3, 3))),
    "softplus": (lambda t: (t.softplus() * t).sum(), TABLE_RNG.normal(size=(3, 3))),
    "abs": (lambda t: (t.abs() * t).sum(), _away_from_kink((3, 3))),
    "sum": (lambda t: (t.sum(axis=0) ** 2).sum() + (t.sum(axis=1, keepdims=True) ** 2).sum(),
            TABLE_RNG.normal(size=(3, 4))),
    "leaky_relu": (lambda t: (F.leaky_relu(t, 0.1) * t).sum(), _away_from_kink((3, 3))),
}

# The shape, gather and fused entries draw from their own stream, so the
# inputs of the cases above stay as they were.  Weighting each output by a
# non-uniform constant makes a misrouted gradient visible.
ENTRY_RNG = np.random.default_rng(2)
GATHER_IDX = np.array([0, 2, 2, 4])
W34 = ENTRY_RNG.normal(size=(3, 4))
W342 = ENTRY_RNG.normal(size=(3, 4, 2))
W432 = ENTRY_RNG.normal(size=(4, 3, 2))
W43 = ENTRY_RNG.normal(size=(4, 3))
W3X10 = ENTRY_RNG.normal(size=(3, 10))
W324 = ENTRY_RNG.normal(size=(3, 2, 4))
CONCAT_SIDE = Tensor(ENTRY_RNG.normal(size=(3, 2)))
STACK_SIDE = Tensor(ENTRY_RNG.normal(size=(3, 4)))

TABLE_CASES.update({
    "reshape": (lambda t: (t.reshape(3, 4) ** 2 * W34).sum(), ENTRY_RNG.normal(size=(2, 6))),
    "transpose": (lambda t: (t.transpose(1, 2, 0) ** 2 * W342).sum(),
                  ENTRY_RNG.normal(size=(2, 3, 4))),
    "swapaxes": (lambda t: (t.swapaxes(0, 2) ** 2 * W432).sum(),
                 ENTRY_RNG.normal(size=(2, 3, 4))),
    # a repeated index: the gathered gradients of row 2 must add up
    "getitem": (lambda t: (t[GATHER_IDX] ** 2 * W43).sum() + (t[1:3] * t[3:5]).sum(),
                ENTRY_RNG.normal(size=(5, 3))),
    "concat": (lambda t: (F.concat([t, CONCAT_SIDE, t * 2.0], axis=1) ** 2 * W3X10).sum(),
               ENTRY_RNG.normal(size=(3, 4))),
    "stack": (lambda t: (F.stack([t, STACK_SIDE], axis=1) ** 2 * W324).sum(),
              ENTRY_RNG.normal(size=(3, 4))),
    "embedding": (lambda t: (F.embedding(t, GATHER_IDX) ** 2 * W43).sum(),
                  ENTRY_RNG.normal(size=(6, 3))),
    # ``t`` is the input, the weight and (summed) the bias at once
    "fused_dense": (lambda t: (F.fused_dense(t, t.transpose(), t.sum(axis=1),
                                             activation="sigmoid") * W43[:, :1]).sum(),
                    ENTRY_RNG.normal(size=(4, 3))),
    # logits, soft labels and sample weights all depend on ``t``
    "bce": (lambda t: F.bce_with_logits(t[:, 0], t[:, 1].sigmoid(),
                                        sample_weight=t[:, 2].exp()),
            ENTRY_RNG.normal(size=(8, 3))),
})


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_table_primitive_gradcheck(name):
    assert set(TABLE_CASES) == set(PRIMITIVES), "every table entry needs a case"
    fn, x = TABLE_CASES[name]
    check(fn, x)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_mlp_composite_gradcheck(rows, cols, seed):
    """Property: a full MLP-style composite has correct gradients for any
    shape and random values."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    w1 = Tensor(rng.normal(size=(cols, 3)))
    w2 = Tensor(rng.normal(size=(3, 1)))
    labels = (rng.random(rows) > 0.5).astype(float)

    def fn(t):
        hidden = (t @ w1).tanh()
        logits = (hidden @ w2).reshape(rows)
        return F.bce_with_logits(logits, labels)

    check(fn, x, tol=1e-5)


def test_grad_accumulates_over_reuse():
    """A tensor used twice receives the sum of both branch gradients."""
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = (x * x).sum() + (3.0 * x).sum()
    out.backward()
    np.testing.assert_allclose(x.grad, np.array([7.0, 9.0]))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        (x * 2).backward()


def test_no_grad_blocks_graph():
    from repro.nn import no_grad

    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad
