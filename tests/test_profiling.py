"""Profiling harness: per-op counters, nesting, and the runner hook."""

from __future__ import annotations

import numpy as np

from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, run_method
from repro.nn import SGD, Embedding
from repro.nn import functional as F
from repro.utils import profiling

from tests.conftest import make_tiny_dataset


def tiny_train_step():
    rng = np.random.default_rng(0)
    emb = Embedding(20, 4, rng)
    opt = SGD(list(emb.parameters()), 0.1)
    ids = np.array([1, 3, 3, 7])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    loss = F.bce_with_logits(emb(ids).sum(axis=1), labels)
    opt.zero_grad()
    loss.backward()
    opt.step()


def test_tick_is_free_when_inactive():
    assert not profiling.is_active()
    assert profiling.tick() is None
    profiling.tock("nothing", None)  # must be a no-op, not an error


def test_profile_collects_hot_path_ops():
    with profiling.profile() as prof:
        tiny_train_step()
    assert not profiling.is_active()
    ops = prof.ops
    assert ops["embedding.forward"].calls == 1
    assert ops["embedding.backward.sparse"].calls == 1
    assert ops["loss.bce_fused_forward"].calls == 1
    assert ops["optim.step"].calls == 1
    assert ops["embedding.forward"].bytes_allocated > 0
    assert prof.total_seconds() > 0.0


def test_profiles_nest():
    outer = profiling.Profile()
    with outer:
        tiny_train_step()
        with profiling.profile() as inner:
            tiny_train_step()
    assert outer.ops["optim.step"].calls == 2
    assert inner.ops["optim.step"].calls == 1


def test_render_and_as_dict():
    with profiling.profile() as prof:
        tiny_train_step()
    table = prof.render(title="hot path")
    assert "embedding.forward" in table and "hot path" in table
    summary = prof.as_dict()
    assert summary["optim.step"]["calls"] == 1
    # sorted by total seconds descending
    seconds = [entry["seconds"] for entry in summary.values()]
    assert seconds == sorted(seconds, reverse=True)


def test_percentile_linear_interpolation_matches_numpy():
    rng = np.random.default_rng(7)
    samples = list(rng.normal(size=37))
    for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
        np.testing.assert_allclose(
            profiling.percentile(samples, q), np.percentile(samples, q * 100)
        )


def test_percentile_linear_is_smooth_at_small_n():
    # Nearest-rank p99 of 4 samples is just the max; linear interpolates.
    samples = [1.0, 2.0, 3.0, 10.0]
    linear = profiling.percentile(samples, 0.99)
    assert 3.0 < linear < 10.0
    assert profiling.percentile(samples, 0.99, method="nearest") == 10.0


def test_percentile_nearest_returns_witness_values():
    samples = [5.0, 1.0, 3.0]
    for q in (0.0, 0.3, 0.5, 0.77, 1.0):
        assert profiling.percentile(samples, q, method="nearest") in samples


def test_percentile_edges_and_validation():
    assert profiling.percentile([4.0], 0.99) == 4.0
    assert profiling.percentile([1.0, 2.0], 0.0) == 1.0
    assert profiling.percentile([1.0, 2.0], 1.0) == 2.0
    assert profiling.percentile([1.0, 2.0], 0.5) == 1.5
    import pytest

    with pytest.raises(ValueError):
        profiling.percentile([], 0.5)
    with pytest.raises(ValueError):
        profiling.percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        profiling.percentile([1.0], 0.5, method="cubic")


def test_runner_profiler_hook():
    dataset = make_tiny_dataset("trainable", n_domains=2, samples=(60, 40))
    config = TrainConfig(epochs=1, batch_size=16, inner_steps=2)
    prof = profiling.Profile()
    report = run_method(
        MethodSpec(name="probe", model="mlp", framework="alternate"),
        dataset, config=config, profiler=prof,
    )
    assert report.mean_auc > 0.0
    assert prof.ops["train.step"].calls > 0
    assert prof.ops["embedding.backward.sparse"].calls > 0


def test_tape_breakdown_aggregates_compiled_kernels():
    from repro.models import build_model
    from repro.nn.optim import make_optimizer
    from repro.utils.seeding import spawn_rng
    from repro.data.batching import iter_minibatches

    dataset = make_tiny_dataset("fixed", n_domains=2, samples=(60, 40))
    model = build_model("mlp", dataset, seed=0)
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    from repro.nn.compile import executor_for
    executor = executor_for(model)
    batches = list(iter_minibatches(
        dataset.domains[0].train, 0, 8, rng=spawn_rng(0, "prof"),
        max_batches=4,
    ))
    with profiling.profile() as compiled_prof:
        for batch in batches:
            start = profiling.tick()
            executor.step(batch, optimizer)
            profiling.tock("train.step", start)
    breakdown = profiling.tape_breakdown(compiled_prof)
    assert "fused_dense" in breakdown and "bce" in breakdown
    # the traced first step runs eagerly; the replays time every kernel
    assert breakdown["bce"]["fwd_calls"] >= len(batches) - 1
    assert abs(sum(r["share"] for r in breakdown.values()) - 1.0) < 1e-9
    rendered = profiling.render_tape_breakdown(compiled_prof)
    assert "fused_dense" in rendered

    with profiling.profile() as eager_prof:
        for batch in batches:
            start = profiling.tick()
            loss = model.loss(batch)
            model.zero_grad()
            loss.backward()
            optimizer.step()
            profiling.tock("train.step", start)
    comparison = profiling.step_speedup(eager_prof, compiled_prof)
    assert comparison["speedup"] > 0
    assert comparison["breakdown"]
