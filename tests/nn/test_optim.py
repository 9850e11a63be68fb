"""Optimizers: convergence on convex problems and state handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, Adagrad, Adam, Parameter, SparseGrad, Tensor, make_optimizer


def quadratic_loss(param, target):
    diff = param - Tensor(target)
    return (diff * diff).sum()


def run_descent(optimizer_cls, lr, steps=300, **kwargs):
    target = np.array([1.5, -2.0, 0.5])
    param = Parameter(np.zeros(3))
    opt = optimizer_cls([param], lr, **kwargs)
    for _ in range(steps):
        loss = quadratic_loss(param, target)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return param.data, target


@pytest.mark.parametrize("cls,lr", [(SGD, 0.1), (Adam, 0.05), (Adagrad, 0.5)])
def test_converges_on_quadratic(cls, lr):
    final, target = run_descent(cls, lr)
    np.testing.assert_allclose(final, target, atol=1e-2)


def test_sgd_momentum_converges():
    final, target = run_descent(SGD, 0.05, momentum=0.9)
    np.testing.assert_allclose(final, target, atol=1e-2)


def test_sgd_weight_decay_shrinks_solution():
    final_plain, target = run_descent(SGD, 0.1)
    final_decayed, _ = run_descent(SGD, 0.1, weight_decay=1.0)
    assert np.linalg.norm(final_decayed) < np.linalg.norm(final_plain)


def test_step_skips_params_without_grad():
    p1 = Parameter(np.zeros(2))
    p2 = Parameter(np.ones(2))
    opt = SGD([p1, p2], 0.1)
    p1.grad = np.ones(2)
    opt.step()
    np.testing.assert_allclose(p1.data, [-0.1, -0.1])
    np.testing.assert_allclose(p2.data, [1.0, 1.0])


def test_adam_bias_correction_first_step():
    p = Parameter(np.zeros(1))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    # With bias correction the first step magnitude equals lr.
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)


def test_reset_state_clears_moments():
    p = Parameter(np.zeros(1))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    opt.reset_state()
    assert opt._t == 0 and not opt._m and not opt._v

    sgd = SGD([p], 0.1, momentum=0.9)
    p.grad = np.array([1.0])
    sgd.step()
    sgd.reset_state()
    assert not sgd._velocity


def test_make_optimizer_registry():
    p = Parameter(np.zeros(1))
    assert isinstance(make_optimizer("sgd", [p], 0.1), SGD)
    assert isinstance(make_optimizer("ADAM", [p], 0.1), Adam)
    assert isinstance(make_optimizer("Adagrad", [p], 0.1), Adagrad)
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", [p], 0.1)


def test_optimizer_rejects_bad_args():
    with pytest.raises(ValueError):
        SGD([], 0.1)
    with pytest.raises(ValueError):
        SGD([Parameter(np.zeros(1))], -0.1)


class ReferenceAdam:
    """Adam spelled out per parameter: the formula ``Adam.step`` must equal
    bit for bit (dense moments per array; sparse rows lazily corrected)."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.reset()

    def reset(self):
        self.m, self.v, self.last, self.t = {}, {}, {}, 0

    def snapshot(self):
        copy = lambda d: {k: v.copy() for k, v in d.items()}  # noqa: E731
        return copy(self.m), copy(self.v), copy(self.last), self.t

    def restore(self, snapshot):
        m, v, last, self.t = snapshot
        self.m = {k: a.copy() for k, a in m.items()}
        self.v = {k: a.copy() for k, a in v.items()}
        self.last = {k: a.copy() for k, a in last.items()}

    def step(self, datas, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for index, (data, grad) in enumerate(zip(datas, grads)):
            if grad is None:
                continue
            m = self.m.setdefault(index, np.zeros_like(data))
            v = self.v.setdefault(index, np.zeros_like(data))
            if isinstance(grad, SparseGrad):
                rows, values = grad.rows, grad.values
                last = self.last.setdefault(
                    index, np.zeros(data.shape[0], dtype=np.int64))
                skipped = (self.t - 1 - last[rows])[:, None]
                m_rows = m[rows] * (b1 ** skipped * b1) + (1.0 - b1) * values
                v_rows = v[rows] * (b2 ** skipped * b2) \
                    + (1.0 - b2) * values ** 2
                m[rows], v[rows], last[rows] = m_rows, v_rows, self.t
                m_hat = m_rows / (1.0 - b1 ** self.t)
                v_hat = v_rows / (1.0 - b2 ** self.t)
                data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
                continue
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad ** 2
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_flat_adam_is_bitwise_the_per_parameter_formula():
    """60 steps over dense and SparseGrad parameters whose dense set changes
    (one parameter skips early odd steps, the table takes a dense gradient
    every 7th step), with a reset and a slot reload mid-run, each followed
    by a step over the same dense set (so stale flat buffers would show):
    every parameter stays bitwise equal to the per-parameter formula, and
    ``state_slots`` round-trips even though the moments are flat views."""
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (5,), (2, 2), (8, 3)]      # the last is an embedding
    params = [Parameter(rng.normal(size=shape)) for shape in shapes]
    reference_data = [p.data.copy() for p in params]
    opt = Adam(params, lr=0.01)
    reference = ReferenceAdam(lr=0.01)
    saved = None
    for step in range(60):
        grads = [rng.normal(size=shape) for shape in shapes[:3]]
        if step % 2 and step < 12:
            grads[2] = None
        if step % 7 == 3:
            grads.append(rng.normal(size=shapes[3]))
        else:
            rows = np.unique(rng.integers(0, shapes[3][0], size=3))
            grads.append(SparseGrad(shapes[3], rows,
                                    rng.normal(size=(rows.size, 3))))
        for param, grad in zip(params, grads):
            param.grad = grad
        opt.step()
        reference.step(reference_data, grads)
        for param, expected in zip(params, reference_data):
            assert np.array_equal(param.data, expected), step

        if step == 15:
            saved, saved_reference = opt.state_slots(), reference.snapshot()
            m, v, _, t = saved_reference
            assert saved["_t"] == t
            for index in m:
                assert np.array_equal(saved["_m"][index], m[index])
                assert np.array_equal(saved["_v"][index], v[index])
        if step == 25:
            opt.reset_state()
            reference.reset()
        if step == 40:
            opt.load_state_slots(saved)
            reference.restore(saved_reference)

    # The slots captured at step 15 were copies, untouched by later steps,
    # and a reload reproduces them exactly.
    m, v, _, _ = saved_reference
    for index in m:
        assert np.array_equal(saved["_m"][index], m[index])
    clone = Adam([Parameter(p.data) for p in params], lr=0.01)
    clone.load_state_slots(opt.state_slots())
    round_trip, current = clone.state_slots(), opt.state_slots()
    assert round_trip["_t"] == current["_t"]
    for attr in ("_m", "_v", "_last_step"):
        assert round_trip[attr].keys() == current[attr].keys()
        for index in current[attr]:
            assert np.array_equal(round_trip[attr][index], current[attr][index])
