"""Planted-bug tests for the runtime autodiff sanitizer.

Each test deliberately commits one of the failure modes the fast paths
(in-place state algebra, zero-copy views, sparse grads) can produce, and
asserts the sanitizer fires with an error naming the exact op — plus
no-false-positive checks proving clean training runs are unaffected.
"""

from __future__ import annotations

import gc
from collections import OrderedDict

import numpy as np
import pytest

from repro.core import TrainConfig, live_state_view
from repro.core.negotiation import domain_negotiation_epoch
from repro.nn import (
    Parameter,
    SGD,
    Tensor,
    state_add_,
    state_allclose,
    state_scale_,
)
from repro.nn import functional as F
from repro.tooling import (
    AnomalyError,
    VersionError,
    anomaly_mode,
    densify_counts,
    graph_census,
    sanitize,
)
from repro.utils import profiling
from repro.utils.seeding import spawn_rng

from tests.conftest import make_tiny_dataset


def make_embedding_graph():
    """An embedding lookup feeding a scalar loss, weight saved for backward."""
    weight = Parameter(np.arange(12, dtype=float).reshape(6, 2) * 0.1)
    out = F.embedding(weight, np.array([0, 2, 4]))
    loss = (out * out).sum()
    return weight, loss


class TestVersionCounters:
    def test_state_add_alias_mutation_is_caught_and_names_op(self):
        with sanitize():
            weight, loss = make_embedding_graph()
            # The planted bug: mutate the saved-for-backward table through
            # a zero-copy state-dict alias between forward and backward.
            alias = OrderedDict(w=weight.data)
            state_add_(alias, OrderedDict(w=np.ones_like(weight.data)))
            with pytest.raises(VersionError) as excinfo:
                loss.backward()
        message = str(excinfo.value)
        assert "embedding" in message
        assert "in-place" in message

    def test_mutation_through_live_state_view_is_caught(self):
        model_weight = Parameter(np.ones((4, 3)))

        class OneParam:
            def named_parameters(self):
                yield ("w", model_weight)

        with sanitize():
            out = (model_weight * 2.0).sum()
            view = live_state_view(OneParam())
            assert view["w"] is model_weight.data  # genuinely zero-copy
            state_scale_(view, 0.5)
            with pytest.raises(VersionError):
                out.backward()

    def test_mutation_through_numpy_subview_is_caught(self):
        with sanitize():
            weight, loss = make_embedding_graph()
            # A strided sub-view of the parameter buffer still traces back
            # to its owner through the .base chain.
            sub = weight.data[1:]
            state_add_({"rows": sub}, {"rows": np.ones_like(sub)})
            with pytest.raises(VersionError):
                loss.backward()

    def test_optimizer_step_before_backward_is_caught(self):
        with sanitize():
            weight, loss = make_embedding_graph()
            weight.grad = np.ones_like(weight.data)
            SGD([weight], lr=0.1).step()
            with pytest.raises(VersionError):
                loss.backward()

    def test_load_state_dict_bumps_version(self):
        from repro.nn import Module

        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))

        model = M()
        with sanitize():
            loss = (model.w * model.w).sum()
            model.load_state_dict({"w": np.zeros(3)})
            with pytest.raises(VersionError):
                loss.backward()

    def test_disabled_sanitizer_does_not_raise(self):
        weight, loss = make_embedding_graph()
        alias = OrderedDict(w=weight.data)
        state_add_(alias, OrderedDict(w=np.ones_like(weight.data)))
        loss.backward()  # silent (wrong, but that is the point of the tool)
        assert weight.grad is not None

    def test_clean_backward_passes_under_sanitizer(self):
        with sanitize():
            weight, loss = make_embedding_graph()
            loss.backward()
        assert weight.grad is not None


class TestAnomalyMode:
    def test_forward_nan_names_op_and_site(self):
        with anomaly_mode(), np.errstate(invalid="ignore"):
            x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
            with pytest.raises(AnomalyError) as excinfo:
                x.log()
        message = str(excinfo.value)
        assert "'log'" in message
        assert "forward" in message
        assert "test_sanitizer" in message  # creation stack points here

    def test_backward_inf_names_op_and_creation_stack(self):
        with anomaly_mode(), np.errstate(divide="ignore"):
            x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
            loss = x.sqrt().sum()  # forward is finite, d/dx sqrt(0) is inf
            with pytest.raises(AnomalyError) as excinfo:
                loss.backward()
        message = str(excinfo.value)
        assert "'sqrt'" in message
        assert "backward" in message
        assert "created at" in message

    def test_finite_graph_is_untouched(self):
        with anomaly_mode():
            x = Tensor(np.array([1.0, 4.0]), requires_grad=True)
            loss = x.sqrt().sum()
            loss.backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.25])

    def test_off_by_default(self):
        with np.errstate(invalid="ignore"):
            x = Tensor(np.array([-1.0]), requires_grad=True)
            y = x.log()  # NaN, but no anomaly mode: no error
        assert np.isnan(y.data).all()


class TestGraphDiagnostics:
    def test_census_counts_live_nodes_then_empties(self):
        with sanitize():
            x = Tensor(np.ones(3), requires_grad=True)
            loss = (x * 2.0).sum()
            census = graph_census()
            assert census.get("mul") == 1
            assert census.get("sum") == 1
            del loss
            gc.collect()
            assert graph_census() == {}

    def test_densify_counter_and_profiling_surface(self):
        weight = Parameter(np.zeros((8, 2)))
        out = F.embedding(weight, np.array([1, 3]))
        (out * out).sum().backward()
        densify_counts(reset=True)
        with profiling.profile() as prof:
            dense = weight.grad.to_dense()
        assert dense.shape == (8, 2)
        assert densify_counts()["SparseGrad.to_dense"] == 1
        stats = prof.ops["sparse.densify"]
        assert stats.calls == 1
        assert stats.bytes_allocated == dense.nbytes


class TestNoFalsePositives:
    def test_dn_training_runs_clean_and_identically_under_sanitizer(self):
        """A full DN epoch (zero-copy views + in-place interpolation +
        sparse embedding grads) must neither trip the sanitizer nor change
        numerics."""
        from repro.models import build_model

        dataset = make_tiny_dataset("trainable", n_domains=2,
                                    samples=(60, 40))
        config = TrainConfig(batch_size=16, inner_steps=2)

        def run_epoch():
            model = build_model("mlp", dataset, seed=0)
            shared = model.state_dict()
            rng = spawn_rng(0, "sanitizer-dn")
            return domain_negotiation_epoch(model, dataset, shared, config, rng)

        plain = run_epoch()
        with sanitize(), anomaly_mode():
            guarded = run_epoch()
        assert state_allclose(plain, guarded)
