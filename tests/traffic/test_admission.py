"""Admission control: conservation, policies, deadlines, determinism."""

from __future__ import annotations

import pytest

from repro.traffic import AdmissionConfig, AdmissionController, DomainSLO

pytestmark = pytest.mark.traffic


def offered_burst(controller, n, domain=0, start=0.0, gap=1e-4):
    admitted = 0
    for i in range(n):
        admitted += controller.offer(i, domain, start + i * gap)
    return admitted


def test_queue_bound_is_enforced_by_drop_tail():
    controller = AdmissionController(AdmissionConfig(
        policy="drop_tail", default_slo=DomainSLO(max_queue=8),
    ))
    admitted = offered_burst(controller, 20)
    assert admitted == 8
    stats = controller.stats()
    assert stats["shed_by_reason"]["queue_full"] == 12
    assert stats["conserved"]


def test_conservation_invariant_holds_at_every_instant():
    controller = AdmissionController(AdmissionConfig(
        policy="fair", default_slo=DomainSLO(max_queue=6), total_queue=10,
    ))
    now = 0.0
    for i in range(200):
        now += 1e-4
        controller.offer(i, i % 4, now)
        assert controller.stats()["conserved"]
        if i % 5 == 4:
            controller.take(4, now)
            assert controller.stats()["conserved"]
    while controller.take(8, now + 1.0):
        pass
    stats = controller.stats()
    assert stats["conserved"]
    assert stats["queued"] == 0
    assert stats["offered"] == stats["accepted"] + stats["shed"]


def test_take_dispatches_oldest_domain_first_in_domain_pure_batches():
    controller = AdmissionController(AdmissionConfig(
        default_slo=DomainSLO(max_queue=16, deadline_ms=1e6),
    ))
    controller.offer(0, 2, 0.000)
    controller.offer(1, 1, 0.001)
    controller.offer(2, 2, 0.002)
    domain, batch = controller.take(8, 0.01)
    assert domain == 2
    assert batch == [0, 2]
    domain, batch = controller.take(8, 0.01)
    assert (domain, batch) == (1, [1])
    assert controller.take(8, 0.01) is None


def test_fair_policy_evicts_newest_of_longest_queue():
    controller = AdmissionController(AdmissionConfig(
        policy="fair", default_slo=DomainSLO(max_queue=32), total_queue=6,
    ))
    for i in range(5):
        controller.offer(i, 0, i * 1e-4)      # domain 0 hogs the budget
    controller.offer(5, 1, 5e-4)
    # Budget full: a tail-domain arrival wins room from the hog.
    assert controller.offer(6, 1, 6e-4)
    stats = controller.stats()
    assert stats["per_domain"][0]["shed"] == 1
    assert stats["shed_by_reason"]["evicted"] == 1
    # The evicted request was domain 0's newest (index 4): FIFO order of
    # the survivors is preserved.
    domain, batch = controller.take(8, 7e-4)
    assert domain == 0
    assert batch == [0, 1, 2, 3]
    assert stats["conserved"]


def test_fair_policy_sheds_the_arrival_when_its_own_queue_is_longest():
    controller = AdmissionController(AdmissionConfig(
        policy="fair", default_slo=DomainSLO(max_queue=32), total_queue=4,
    ))
    for i in range(4):
        controller.offer(i, 0, i * 1e-4)
    assert not controller.offer(4, 0, 4e-4)
    assert controller.stats()["shed_by_reason"]["budget"] == 1


def test_priority_policy_never_preempts_equal_or_better_tiers():
    config = AdmissionConfig(
        policy="priority",
        default_slo=DomainSLO(max_queue=32, tier=1),
        domain_slos={
            0: DomainSLO(max_queue=32, tier=0),   # premium
            2: DomainSLO(max_queue=32, tier=2),   # best-effort
        },
        total_queue=4,
    )
    controller = AdmissionController(config)
    controller.offer(0, 1, 0.0)
    controller.offer(1, 2, 1e-4)
    controller.offer(2, 1, 2e-4)
    controller.offer(3, 2, 3e-4)
    # Premium arrival preempts the worst (tier 2) queue's newest entry.
    assert controller.offer(4, 0, 4e-4)
    assert controller.stats()["per_domain"][2]["shed"] == 1
    # A best-effort arrival cannot preempt anyone (no strictly worse tier).
    assert not controller.offer(5, 2, 5e-4)
    stats = controller.stats()
    assert stats["shed_by_reason"]["evicted"] == 1
    assert stats["shed_by_reason"]["budget"] == 1
    assert stats["conserved"]


def test_deadline_shedding_at_dispatch():
    controller = AdmissionController(AdmissionConfig(
        default_slo=DomainSLO(p99_ms=10.0, max_queue=16),  # deadline 6ms
    ))
    controller.offer(0, 0, 0.000)
    controller.offer(1, 0, 0.005)
    taken = controller.take(4, 0.007)   # request 0 is 7ms old: expired
    assert taken == (0, [1])
    stats = controller.stats()
    assert stats["shed_by_reason"]["deadline"] == 1
    assert stats["conserved"]


def test_deadline_shedding_can_be_disabled():
    controller = AdmissionController(AdmissionConfig(
        default_slo=DomainSLO(p99_ms=10.0, max_queue=16),
        shed_deadline=False,
    ))
    controller.offer(0, 0, 0.0)
    assert controller.take(4, 10.0) == (0, [0])
    assert controller.stats()["shed"] == 0


def test_identical_call_sequences_make_identical_decisions():
    def run():
        controller = AdmissionController(AdmissionConfig(
            policy="fair", default_slo=DomainSLO(p99_ms=5.0, max_queue=8),
            total_queue=20,
        ))
        decisions = []
        for i in range(300):
            now = i * 3e-5
            decisions.append(controller.offer(i, (i * 7) % 5, now))
            if i % 3 == 0:
                decisions.append(controller.take(4, now))
        return decisions, controller.stats()

    first, first_stats = run()
    second, second_stats = run()
    assert first == second
    assert first_stats == second_stats


def test_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(policy="random")
    with pytest.raises(ValueError):
        DomainSLO(p99_ms=0.0)
    with pytest.raises(ValueError):
        DomainSLO(max_queue=0)
    with pytest.raises(ValueError):
        DomainSLO(deadline_ms=-1.0)
    with pytest.raises(ValueError):
        AdmissionConfig(total_queue=0)
