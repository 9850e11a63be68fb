"""Chaos suite: the cluster under a fault plan must recover, not diverge.

The ``chaos_smoke`` test is the acceptance scenario: a mid-epoch worker
crash plus 5% drops, 5% lost replies and 10% duplicated deliveries, and
training must still converge within 0.01 mean AUC of the no-fault run.
"""

from __future__ import annotations

import pytest

from repro.core import TrainConfig
from repro.distributed import FaultPlan, ParameterServer, SimulatedCluster
from repro.distributed.worker import embedding_parameter_names
from repro.metrics import evaluate_bank
from repro.models import build_model
from repro.nn.state import state_checksum


def build_factory(dataset):
    return lambda worker_id: build_model("mlp", dataset, seed=0)


CHAOS_CONFIG = TrainConfig(epochs=6, batch_size=32, inner_steps=3,
                           dr_steps=2, sample_k=1, finetune_steps=4)

#: The acceptance fault plan: deterministic, seeded, and nasty — worker 1
#: dies on its 15th message, on top of a steady 20% of deliveries failing
#: some way.
ACCEPTANCE_PLAN = FaultPlan(seed=7, drop_rate=0.05, timeout_rate=0.05,
                            duplicate_rate=0.10, crash_after={1: 15})


# ----------------------------------------------------------------------
# Plan validation
# ----------------------------------------------------------------------
def test_plan_rates_validated():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=0.7, timeout_rate=0.4)
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=-0.1)


def test_plan_is_frozen_and_serializable():
    plan = FaultPlan(seed=3, drop_rate=0.1, crash_after={"2": 10},
                     slow_workers={1: 0.5})
    with pytest.raises(AttributeError):
        plan.drop_rate = 0.5
    with pytest.raises(TypeError):
        plan.crash_after[0] = 1
    # JSON configs arrive with string keys; the plan normalizes to int.
    assert plan.crashes_at(2, 10)
    as_dict = plan.as_dict()
    assert FaultPlan(**as_dict) == plan


# ----------------------------------------------------------------------
# No-fault parity: the transport layer must be invisible
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_no_fault_run_matches_plain_cluster(mode, tiny_dataset, fast_config):
    plain = SimulatedCluster(n_workers=3, mode=mode)
    bank_plain = plain.run(build_factory(tiny_dataset), tiny_dataset,
                           fast_config, seed=1)
    guarded = SimulatedCluster(n_workers=3, mode=mode, heartbeat_timeout=2)
    bank_guarded = guarded.run(build_factory(tiny_dataset), tiny_dataset,
                               fast_config, seed=1)
    assert state_checksum(bank_plain.model.state_dict()) == state_checksum(
        bank_guarded.model.state_dict()
    )


# ----------------------------------------------------------------------
# Fault handling
# ----------------------------------------------------------------------
def test_drops_and_duplicates_are_survivable(tiny_dataset, fast_config):
    plan = FaultPlan(seed=5, drop_rate=0.1, duplicate_rate=0.1)
    cluster = SimulatedCluster(n_workers=3, mode="async", fault_plan=plan)
    bank = cluster.run(build_factory(tiny_dataset), tiny_dataset,
                       fast_config, seed=1)
    stats = cluster.stats()
    assert stats["crashes"] == []
    # Every worker completed every epoch despite the noise.
    assert all(w.epochs_run == fast_config.epochs for w in cluster.workers)
    report = evaluate_bank(bank, tiny_dataset, method="chaos")
    assert 0.0 <= report.mean_auc <= 1.0


def test_crashed_worker_is_evicted_and_resharded(tiny_dataset):
    config = CHAOS_CONFIG
    plan = FaultPlan(seed=7, crash_after={1: 15})
    cluster = SimulatedCluster(n_workers=3, mode="async", fault_plan=plan,
                               heartbeat_timeout=1)
    cluster.run(build_factory(tiny_dataset), tiny_dataset, config, seed=1)
    stats = cluster.stats()
    assert [crash["worker"] for crash in stats["crashes"]] == [1]
    assert [ev["worker"] for ev in stats["evictions"]] == [1]
    reassigned = stats["evictions"][0]["reassigned"]
    # The dead worker's whole shard moved to live workers.
    assert set(reassigned.values()) <= {0, 2}
    survivors = {w.worker_id: w for w in cluster.workers}
    for domain, target in reassigned.items():
        assert domain in survivors[target].domain_indices
    assert survivors[1].evicted and not survivors[1].alive


def test_eviction_requires_heartbeat_silence(tiny_dataset, fast_config):
    """With the monitor disabled, a crashed worker is never evicted."""
    plan = FaultPlan(seed=7, crash_after={1: 15})
    cluster = SimulatedCluster(n_workers=3, mode="async", fault_plan=plan,
                               heartbeat_timeout=None)
    cluster.run(build_factory(tiny_dataset), tiny_dataset, fast_config,
                seed=1)
    assert cluster.stats()["evictions"] == []


def test_zombie_push_rejected_by_staleness_bound(tiny_dataset):
    """A worker pushing from a long-stale snapshot loses its delta.

    The scheduler itself never interleaves pull and push, so this drives
    two clients by hand: a zombie pulls, the rest of the cluster moves
    on, and the zombie's eventual push must bounce off ``max_staleness``
    instead of dragging the state backwards.
    """
    import numpy as np

    from repro.distributed.transport import DirectChannel, PSClient

    model = build_model("mlp", tiny_dataset, seed=0)
    ps = ParameterServer(
        model.state_dict(),
        embedding_names=embedding_parameter_names(model),
        max_staleness=1,
    )
    zombie = PSClient(DirectChannel(ps), worker_id=9)
    healthy = PSClient(DirectChannel(ps), worker_id=0)
    stale_dense = zombie.pull_dense()  # base_version 0
    name = next(iter(stale_dense))
    for _ in range(3):  # the cluster moves on: version 0 -> 3
        healthy.pull_dense()
        healthy.push_delta({name: np.zeros_like(stale_dense[name])}, {})
    before = ps.full_state()[name].copy()
    response = zombie.push_delta(
        {name: np.ones_like(stale_dense[name])}, {}
    )
    assert not response.accepted
    assert zombie.counters["stale_rejected"] == 1
    assert ps.stale_rejections == 1
    np.testing.assert_array_equal(ps.full_state()[name], before)


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------
@pytest.mark.chaos_smoke
def test_chaos_acceptance_recovers_within_auc_budget(tiny_dataset):
    """Crash + drops + duplicates: recover within 0.01 mean AUC."""
    config = CHAOS_CONFIG
    baseline = SimulatedCluster(n_workers=3, mode="async")
    bank_base = baseline.run(build_factory(tiny_dataset), tiny_dataset,
                             config, seed=1)
    auc_base = evaluate_bank(bank_base, tiny_dataset, method="base").mean_auc

    chaos = SimulatedCluster(n_workers=3, mode="async",
                             fault_plan=ACCEPTANCE_PLAN, heartbeat_timeout=1)
    bank_chaos = chaos.run(build_factory(tiny_dataset), tiny_dataset,
                           config, seed=1)
    auc_chaos = evaluate_bank(bank_chaos, tiny_dataset,
                              method="chaos").mean_auc

    stats = chaos.stats()
    # The plan actually bit: a crash, an eviction with re-sharding, and
    # duplicated pushes absorbed by server-side dedup.
    assert len(stats["crashes"]) == 1
    assert len(stats["evictions"]) == 1
    assert stats["evictions"][0]["reassigned"]
    assert stats["ps_dedup_hits"] > 0
    assert sum(
        counters["retried"] for counters in stats["transport"].values()
    ) > 0
    assert abs(auc_base - auc_chaos) < 0.01


@pytest.mark.chaos_smoke
def test_chaos_acceptance_is_deterministic(tiny_dataset):
    """The same plan seed replays the same faults and the same result."""
    config = CHAOS_CONFIG

    def once():
        cluster = SimulatedCluster(n_workers=3, mode="async",
                                   fault_plan=ACCEPTANCE_PLAN,
                                   heartbeat_timeout=1)
        bank = cluster.run(build_factory(tiny_dataset), tiny_dataset,
                           config, seed=1)
        return state_checksum(bank.model.state_dict()), cluster.stats()

    checksum_a, stats_a = once()
    checksum_b, stats_b = once()
    assert checksum_a == checksum_b
    assert stats_a["crashes"] == stats_b["crashes"]
    assert stats_a["evictions"] == stats_b["evictions"]
    assert stats_a["ps_dedup_hits"] == stats_b["ps_dedup_hits"]


# ----------------------------------------------------------------------
# Server-side staleness unit check
# ----------------------------------------------------------------------
def test_ps_rejects_stale_push_directly(tiny_dataset):
    from repro.distributed.transport import PushRequest

    model = build_model("mlp", tiny_dataset, seed=0)
    ps = ParameterServer(
        model.state_dict(),
        embedding_names=embedding_parameter_names(model),
        max_staleness=1,
    )
    fresh = PushRequest(worker_id=0, request_id="a", base_version=0,
                        dense_delta={}, embedding_deltas={})
    assert ps.handle(fresh).accepted
    assert ps.handle(
        PushRequest(worker_id=0, request_id="b", base_version=0,
                    dense_delta={}, embedding_deltas={})
    ).accepted  # exactly max_staleness behind: still allowed
    ps.handle(PushRequest(worker_id=0, request_id="c", base_version=1,
                          dense_delta={}, embedding_deltas={}))
    stale = ps.handle(
        PushRequest(worker_id=0, request_id="d", base_version=1,
                    dense_delta={}, embedding_deltas={})
    )
    assert not stale.accepted and "stale" in stale.reason
    assert ps.stale_rejections == 1
