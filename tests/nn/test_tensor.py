"""Behavioral tests for the Tensor class (beyond gradient correctness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, is_grad_enabled, no_grad


def test_construction_coerces_to_float64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert t.shape == (3,)
    assert t.size == 3
    assert len(t) == 3


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    wrapped = as_tensor([1.0, 2.0])
    assert isinstance(wrapped, Tensor)
    assert not wrapped.requires_grad


def test_repr_mentions_grad_flag():
    assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))
    assert "requires_grad" not in repr(Tensor([1.0]))


def test_detach_shares_data_but_cuts_graph():
    t = Tensor([1.0, 2.0], requires_grad=True)
    d = t.detach()
    assert not d.requires_grad
    assert d.data is t.data


def test_item_on_scalar():
    assert Tensor(np.array(2.5)).item() == 2.5
    with pytest.raises(Exception):
        Tensor([1.0, 2.0]).item()


def test_arithmetic_with_python_scalars():
    t = Tensor([1.0, 2.0])
    np.testing.assert_allclose((t + 1).data, [2.0, 3.0])
    np.testing.assert_allclose((1 + t).data, [2.0, 3.0])
    np.testing.assert_allclose((t - 1).data, [0.0, 1.0])
    np.testing.assert_allclose((3 - t).data, [2.0, 1.0])
    np.testing.assert_allclose((t * 2).data, [2.0, 4.0])
    np.testing.assert_allclose((t / 2).data, [0.5, 1.0])
    np.testing.assert_allclose((2 / t).data, [2.0, 1.0])


def test_matmul_requires_2d():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])


def test_pow_rejects_tensor_exponent():
    with pytest.raises(TypeError):
        Tensor([2.0]) ** Tensor([2.0])


def test_comparison_returns_numpy_bool():
    t = Tensor([1.0, -1.0])
    mask = t > 0
    assert mask.dtype == bool
    assert mask.tolist() == [True, False]
    assert (t < 0).tolist() == [False, True]


def test_backward_on_non_grad_tensor_raises():
    with pytest.raises(RuntimeError):
        Tensor([1.0]).backward()


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.array([1.0]), requires_grad=True)
    (x * 2).sum().backward()
    (x * 3).sum().backward()
    np.testing.assert_allclose(x.grad, [5.0])
    x.zero_grad()
    assert x.grad is None


def test_grad_flag_restored_after_exception():
    assert is_grad_enabled()
    with pytest.raises(ValueError):
        with no_grad():
            raise ValueError("boom")
    assert is_grad_enabled()


def test_sigmoid_is_stable_for_extreme_logits():
    t = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    out = t.sigmoid().data
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
    sp = t.softplus().data
    assert np.isfinite(sp).all()
    assert sp[0] == pytest.approx(0.0, abs=1e-12)
    assert sp[2] == pytest.approx(1000.0)


def test_no_graph_recorded_for_non_grad_inputs():
    a = Tensor([1.0])
    b = Tensor([2.0])
    c = a + b
    assert c._backward is None
    assert c._parents == ()


def test_mean_over_tuple_axis():
    x = np.arange(24, dtype=float).reshape(2, 3, 4)
    t = Tensor(x, requires_grad=True)
    out = t.mean(axis=(0, 1))
    np.testing.assert_allclose(out.data, x.mean(axis=(0, 1)))
    out.sum().backward()
    # each output element averages 2*3 = 6 inputs
    np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / 6.0))


def test_mean_over_tuple_axis_keepdims_and_negative():
    x = np.arange(12, dtype=float).reshape(3, 4)
    t = Tensor(x, requires_grad=True)
    out = t.mean(axis=(-2, -1), keepdims=True)
    assert out.shape == (1, 1)
    np.testing.assert_allclose(out.data, x.mean(axis=(0, 1), keepdims=True))
    out.sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / 12.0))


def test_no_grad_nests_and_restores_each_level():
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        # inner exit must not re-enable grad while the outer block is open
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_is_isolated_per_thread():
    """One thread entering no_grad() must not disable recording in another
    (the reason _GRAD_ENABLED is a ContextVar, not a module global)."""
    import threading

    entered = threading.Event()
    release = threading.Event()
    observed = {}

    def hold_no_grad():
        with no_grad():
            entered.set()
            release.wait(timeout=10.0)

    def observe():
        entered.wait(timeout=10.0)
        observed["enabled"] = is_grad_enabled()
        x = Tensor(np.ones(2), requires_grad=True)
        observed["recorded"] = ((x * 2).sum()._backward is not None)
        release.set()

    workers = [threading.Thread(target=hold_no_grad),
               threading.Thread(target=observe)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10.0)
    assert observed == {"enabled": True, "recorded": True}
    assert is_grad_enabled()


def test_stable_sigmoid_is_bitwise_the_masked_formula():
    """The branch-free sigmoid equals the per-sign masked formula bit for
    bit — over normals at many scales, the edges, and with ``out=x``."""
    from repro.nn.tensor import _stable_sigmoid

    def masked(x):
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    rng = np.random.default_rng(0)
    normals = rng.normal(size=100_000)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 709.0, -745.0, 745.0, -709.0])
    cases = [scale * normals for scale in (1e-3, 1e-1, 1.0, 10.0, 40.0, 800.0)]
    cases += [edges, normals.reshape(250, 400), np.array(-3.0)]
    for x in cases:
        expected = masked(x).view(np.uint64)
        assert np.array_equal(_stable_sigmoid(x).view(np.uint64), expected)
        aliased = x.copy()
        assert _stable_sigmoid(aliased, out=aliased) is aliased
        assert np.array_equal(aliased.view(np.uint64), expected)
