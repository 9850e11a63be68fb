"""Static certification vs eager-replay verification cost.

``replay_verify`` guards every compiled step with a full eager re-run
plus bitwise comparison — roughly doubling step cost.  The tape verifier
proves the properties that re-run checks dynamically, so certified tapes
may skip it (``replay_verify(strict=False)``); this benchmark measures
what that proof is worth.  Three variants of the same training loop:

* **unverified** — plain compiled replay, no oracle (the floor);
* **static** — ``replay_verify(strict=False)``: certified tapes skip the
  eager re-run, uncertified ones still pay it;
* **eager** — ``replay_verify()`` strict: the unconditional bitwise
  oracle on every step.

Results append to ``BENCH_perf.json``.  Run::

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf_smoke -q -s
"""

from __future__ import annotations

import pytest

from repro.data import DomainSpec, SyntheticConfig, generate_dataset, sample_batch
from repro.models import build_model
from repro.nn.compile import executor_for
from repro.nn.optim import make_optimizer
from repro.tooling import sanitizer
from repro.utils.seeding import spawn_rng

from test_perf_microbench import best_time

N_STEPS = 32
BATCH = 16


def make_mdr_dataset(n_domains, seed=0):
    """Small fixed-feature domains: every step replays one dense tape."""
    specs = tuple(
        DomainSpec(f"C{i}", 120, 0.25 + 0.05 * (i % 8))
        for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name=f"compile_{n_domains}", domains=specs, n_users=400,
        n_items=200, latent_dim=8, feature_mode="fixed", feature_dim=10,
        seed=seed,
    ))


def time_verify(dataset, variant, n_steps=N_STEPS):
    model = build_model("mlp", dataset, seed=0)
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    executor = executor_for(model)
    # Trace (and certify) outside the timed region: the cost under
    # comparison is per-step verification, not one-time compilation.
    warm = sample_batch(dataset.domain(0).train, 0, BATCH, spawn_rng(3, "w"))
    executor.step(warm, optimizer)

    def loop():
        rng = spawn_rng(11, "bench-verify", variant)
        if variant == "unverified":
            for _ in range(n_steps):
                batch = sample_batch(dataset.domain(0).train, 0, BATCH, rng)
                executor.step(batch, optimizer)
            return
        strict = variant == "eager"
        with sanitizer.replay_verify(strict=strict):
            for _ in range(n_steps):
                batch = sample_batch(dataset.domain(0).train, 0, BATCH, rng)
                executor.step(batch, optimizer)

    return best_time(loop, repeats=3, warmup=1)


@pytest.mark.perf_smoke
def test_static_vs_eager_verification(perf_records):
    """Acceptance: statically certified verification must recover most of
    the eager oracle's overhead — static-mode steps may cost at most 40%
    of the gap between unverified and eager-verified replay."""
    dataset = make_mdr_dataset(2)
    unverified = time_verify(dataset, "unverified")
    static = time_verify(dataset, "static")
    eager = time_verify(dataset, "eager")
    overhead_static = static - unverified
    overhead_eager = eager - unverified
    print(f"\nverify cost over {N_STEPS} steps: "
          f"unverified {unverified * 1e3:.1f} ms, "
          f"static {static * 1e3:.1f} ms, "
          f"eager-replay {eager * 1e3:.1f} ms "
          f"(static overhead {overhead_static * 1e3:.1f} ms vs "
          f"eager {overhead_eager * 1e3:.1f} ms)")
    assert unverified > 0 and static > 0 and eager > 0
    assert eager > unverified, "eager oracle should not be free"
    assert overhead_static <= 0.4 * overhead_eager, (
        f"static certification recovered too little: {overhead_static:.4f}s "
        f"vs eager {overhead_eager:.4f}s"
    )
    perf_records["analyzer_verify_modes"] = {
        "n_steps": N_STEPS, "batch_size": BATCH,
        "unverified_seconds": unverified,
        "static_seconds": static,
        "eager_seconds": eager,
        "eager_overhead_seconds": overhead_eager,
        "static_overhead_seconds": overhead_static,
    }
