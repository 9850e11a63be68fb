"""SLO-aware admission control: bounded queues and load shedding.

An overloaded predictor with an unbounded queue serves *nobody* within
SLO — queueing delay grows without bound and every response is late.
Admission control converts overload into a controlled trade: requests
beyond capacity are **shed** immediately (cheap, visible, accounted) so
the requests that are accepted still meet their latency target.

:class:`AdmissionController` owns per-domain FIFO queues bounded by
:class:`DomainSLO` limits, plus an optional shared budget across domains.
Three shedding policies cover the classic operating points:

``drop_tail``
    Each domain's queue has a hard bound; an arrival finding its queue
    (or the shared budget) full is shed.  Simplest and per-domain fair in
    isolation, but a hot domain can monopolize a shared budget.
``fair``
    On budget pressure the *longest* queue pays: the arrival is accepted
    by evicting the newest request of the longest queue (max–min
    fairness pressure), unless the arrival's own domain is the longest —
    then the arrival itself is shed.  Head domains cannot starve tail
    domains.
``priority``
    Domains carry tiers (lower = more important).  On budget pressure an
    arrival evicts the newest request of the worst strictly-lower-tier
    nonempty queue; same-or-better tiers are never preempted.

Deadline shedding is orthogonal: at dispatch time, requests whose queue
age already exceeds the domain's ``deadline_ms`` are shed rather than
scored — scoring them would spend capacity on a response the caller has
already written off, which is exactly how overload cascades.

Accounting is conservative by construction and the test suite pins the
invariant: ``offered == accepted + shed + queued`` at every instant
(``accepted`` = handed to a scorer; after a drain, ``queued == 0``).
The controller is deliberately RNG-free — given the same sequence of
``offer``/``take`` calls it makes identical decisions, which is what
makes overload runs replayable end-to-end from a trace seed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

__all__ = ["DomainSLO", "AdmissionConfig", "AdmissionController"]

_POLICIES = ("drop_tail", "fair", "priority")
_SHED_REASONS = ("queue_full", "budget", "evicted", "deadline")


@dataclass(frozen=True)
class DomainSLO:
    """Per-domain service-level objective and queue bound.

    ``p99_ms`` is the latency target for *accepted* requests; the queue
    bound and dispatch deadline are what enforce it: a request can wait
    at most ``deadline_ms`` (default: 60% of the target, leaving headroom
    for service time) before it is shed instead of served late.
    """

    p99_ms: float = 50.0
    max_queue: int = 64
    tier: int = 1
    deadline_ms: float | None = None

    def __post_init__(self):
        if self.p99_ms <= 0:
            raise ValueError("p99_ms must be positive")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")

    @property
    def deadline_seconds(self):
        deadline = (
            self.deadline_ms if self.deadline_ms is not None
            else 0.6 * self.p99_ms
        )
        return deadline * 1e-3


class AdmissionConfig:
    """Admission policy plus the SLO map driving it."""

    def __init__(self, policy="drop_tail", default_slo=None, domain_slos=None,
                 total_queue=None, shed_deadline=True):
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {policy!r} (choose from {_POLICIES})"
            )
        self.policy = policy
        self.default_slo = default_slo if default_slo is not None else DomainSLO()
        self.domain_slos = dict(domain_slos or {})
        if total_queue is not None and total_queue < 1:
            raise ValueError("total_queue must be >= 1 when set")
        self.total_queue = total_queue
        self.shed_deadline = bool(shed_deadline)

    def slo(self, domain):
        return self.domain_slos.get(domain, self.default_slo)


class _Pending:
    __slots__ = ("index", "domain", "arrival")

    def __init__(self, index, domain, arrival):
        self.index = index
        self.domain = domain
        self.arrival = arrival


class AdmissionController:
    """Bounded per-domain queues with policy-driven load shedding."""

    def __init__(self, config=None):
        self.config = config if config is not None else AdmissionConfig()
        self._queues = OrderedDict()   # domain -> deque[_Pending]
        self.offered = 0
        self.accepted = 0              # dispatched to a scorer
        self.shed = 0
        self.shed_by_reason = {reason: 0 for reason in _SHED_REASONS}
        self.per_domain = {}           # domain -> {"offered","accepted","shed"}

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def offer(self, index, domain, now):
        """Admit request ``index`` for ``domain`` or shed it.

        Returns ``True`` when the request entered a queue.  ``now`` is
        whatever clock the caller replays on; the controller only ever
        compares durations against it.
        """
        domain = int(domain)
        self.offered += 1
        counters = self._domain_counters(domain)
        counters["offered"] += 1
        queue = self._queues.setdefault(domain, deque())
        slo = self.config.slo(domain)
        if len(queue) >= slo.max_queue:
            self._shed_arrival(domain, "queue_full")
            return False
        if self._over_budget():
            if not self._make_room(domain):
                self._shed_arrival(domain, "budget")
                return False
        queue.append(_Pending(index, domain, now))
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def take(self, max_batch, now):
        """Pop up to ``max_batch`` requests of one domain for scoring.

        The domain with the oldest head request goes first (global FIFO
        at batch granularity, per-domain batches because every row of a
        batch must score under the same Θ_i).  Deadline-expired requests
        are shed on the way out.  Returns ``(domain, [indices])`` or
        ``None`` when nothing is ready.
        """
        if self.config.shed_deadline:
            self._shed_expired(now)
        oldest_domain = None
        oldest_arrival = None
        for domain, queue in self._queues.items():
            if not queue:
                continue
            if oldest_arrival is None or queue[0].arrival < oldest_arrival:
                oldest_arrival = queue[0].arrival
                oldest_domain = domain
        if oldest_domain is None:
            return None
        queue = self._queues[oldest_domain]
        batch = []
        while queue and len(batch) < max_batch:
            batch.append(queue.popleft().index)
        self.accepted += len(batch)
        self._domain_counters(oldest_domain)["accepted"] += len(batch)
        return oldest_domain, batch

    def queued(self):
        """Requests currently admitted but not yet dispatched."""
        return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------
    # Policy internals
    # ------------------------------------------------------------------
    def _over_budget(self):
        budget = self.config.total_queue
        return budget is not None and self.queued() >= budget

    def _make_room(self, arriving_domain):
        """Try to evict one queued request in favor of the arrival."""
        policy = self.config.policy
        if policy == "drop_tail":
            return False
        if policy == "fair":
            lengths = {
                domain: len(queue)
                for domain, queue in self._queues.items() if queue
            }
            if not lengths:
                return False
            longest = max(lengths, key=lambda d: (lengths[d], d))
            arriving_len = lengths.get(arriving_domain, 0)
            # +1 counts the arrival itself: evicting from an equally
            # long queue would just shuffle the pain, not balance it.
            if lengths[longest] <= arriving_len + 1:
                return False
            self._evict_newest(longest)
            return True
        assert policy == "priority"
        arriving_tier = self.config.slo(arriving_domain).tier
        victim, victim_tier = None, arriving_tier
        for domain, queue in self._queues.items():
            if not queue:
                continue
            tier = self.config.slo(domain).tier
            # Strictly worse tier (higher number) than any found so far.
            if tier > victim_tier:
                victim, victim_tier = domain, tier
        if victim is None:
            return False
        self._evict_newest(victim)
        return True

    def _evict_newest(self, domain):
        self._queues[domain].pop()
        self._record_shed(domain, "evicted")

    def _shed_arrival(self, domain, reason):
        self._record_shed(domain, reason)

    def _shed_expired(self, now):
        for domain, queue in self._queues.items():
            deadline = self.config.slo(domain).deadline_seconds
            while queue and now - queue[0].arrival > deadline:
                queue.popleft()
                self._record_shed(domain, "deadline")

    def _record_shed(self, domain, reason):
        self.shed += 1
        self.shed_by_reason[reason] += 1
        self._domain_counters(domain)["shed"] += 1

    def _domain_counters(self, domain):
        counters = self.per_domain.get(domain)
        if counters is None:
            counters = self.per_domain[domain] = {
                "offered": 0, "accepted": 0, "shed": 0,
            }
        return counters

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self):
        """Counters plus the conservation identity the tests pin."""
        queued = self.queued()
        return {
            "policy": self.config.policy,
            "offered": self.offered,
            "accepted": self.accepted,
            "shed": self.shed,
            "queued": queued,
            "shed_by_reason": dict(self.shed_by_reason),
            "per_domain": {
                domain: dict(counters)
                for domain, counters in sorted(self.per_domain.items())
            },
            "conserved": self.offered == self.accepted + self.shed + queued,
        }
