"""Virtual open-loop replay and pool bit-parity for the traffic tier.

Two questions a serving tier must answer before production traffic hits
it, each with its own measurement discipline:

1. **Where is the knee, and what happens past it?**  Offered load is
   swept over the *same* request sequence
   (:meth:`~repro.traffic.tracegen.Trace.at_rate` re-paces the
   timestamps, nothing else) and each point reports achieved QPS,
   p50/p95/p99 of accepted requests, and shed fraction.  The knee is the
   largest offered rate absorbed with <1% shedding.  Latency is measured
   from the request's *intended arrival time* on the trace clock — the
   open-loop, coordinated-omission-correct definition: when the system
   falls behind, the backlog is charged to the requests that suffered
   it.  Past the knee the admission controller must convert overload
   into *shedding*, not latency, and the shed decisions replay
   bit-identically from the trace seed (the controller is RNG-free and
   the replay clock is virtual).

2. **Is the pool still the model?**  Multi-process responses must be
   bit-identical to the single-process :class:`~repro.serving.service
   .Predictor` — including across a hot reload published *mid-trace*,
   where each response is checked against the reference predictor of the
   generation it was actually scored under.

The replay is an event-driven simulation over ``n_workers`` servers
whose per-batch service time is an affine model ``a + b * batch_size``:
on a single core, N real processes time-slice one CPU and a wall-clock
sweep would measure the scheduler, not the architecture.  Measured
serving throughput and latency live in the benchmark of record
(``benchmarks/e2e``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..serving.service import Predictor
from ..utils import profiling
from .admission import AdmissionController

__all__ = [
    "ServiceTimeModel",
    "simulate_replay",
    "sweep_saturation",
    "find_knee",
    "check_pool_parity",
]


# ----------------------------------------------------------------------
# Service-time model (drives the virtual replay)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceTimeModel:
    """Affine per-batch service time: ``base + per_row * batch_size``.

    The affine shape is what micro-batching exploits: per-request cost
    falls as batches amortize the fixed prepare/forward overhead.
    """

    base_seconds: float
    per_row_seconds: float

    def __post_init__(self):
        if self.base_seconds <= 0 or self.per_row_seconds < 0:
            raise ValueError("service model coefficients must be positive")

    def service_seconds(self, batch_size):
        return self.base_seconds + self.per_row_seconds * batch_size

    def capacity_qps(self, n_workers, batch_size):
        """Steady-state throughput bound at a fixed dispatch batch size."""
        return n_workers * batch_size / self.service_seconds(batch_size)


# ----------------------------------------------------------------------
# Virtual open-loop replay
# ----------------------------------------------------------------------
def simulate_replay(trace, service_model, n_workers=2, max_batch=32,
                    admission=None):
    """Event-driven open-loop replay of ``trace`` over ``n_workers`` servers.

    Arrivals are offered at their trace timestamps; whenever a worker is
    free and requests are queued, the admission controller dispatches one
    per-domain batch (oldest head first, deadline-shedding on the way).
    Latency of an accepted request = batch finish time minus the
    request's *intended arrival* — queueing delay is charged in full.

    Deterministic by construction: the trace is a pure function of its
    seed and both the controller and this loop are RNG-free, so the
    returned ``decision_crc32`` (a digest of every accept/dispatch/shed
    decision in order) is replayable bit-for-bit.
    """
    controller = AdmissionController(admission)
    workers = [0.0] * n_workers
    latencies = []
    digest = zlib.crc32(b"traffic-replay")
    # Plain floats end-to-end: numpy scalars would otherwise leak into
    # worker clocks and percentiles and break JSON serialization.
    times = [float(t) for t in trace.times]

    def dispatch_until(limit):
        nonlocal digest
        while controller.queued():
            worker = min(range(n_workers), key=workers.__getitem__)
            head = controller.head_arrival()
            now = max(workers[worker], head)
            if limit is not None and now >= limit:
                return
            taken = controller.take(max_batch, now)
            if taken is None:
                continue  # deadline shedding drained the queues
            domain, batch = taken
            finish = now + service_model.service_seconds(len(batch))
            workers[worker] = finish
            digest = zlib.crc32(
                f"d:{domain}:{len(batch)}:{batch[0]}".encode(), digest
            )
            for index in batch:
                latencies.append(float(finish - times[index]))

    for index in range(len(times)):
        dispatch_until(times[index])
        admitted = controller.offer(index, trace.domains[index], times[index])
        digest = zlib.crc32(
            f"o:{index}:{int(admitted)}".encode(), digest
        )
    dispatch_until(None)

    stats = controller.stats()
    makespan = max([trace.horizon] + workers)
    latencies_ms = [seconds * 1e3 for seconds in latencies]

    def quantile(q):
        return profiling.percentile(latencies_ms, q) if latencies_ms else None
    return {
        "mode": "virtual",
        "n_workers": n_workers,
        "max_batch": max_batch,
        "offered_qps": trace.offered_qps,
        "achieved_qps": stats["accepted"] / makespan if makespan > 0 else 0.0,
        "offered": stats["offered"],
        "accepted": stats["accepted"],
        "shed": stats["shed"],
        "shed_fraction": (
            stats["shed"] / stats["offered"] if stats["offered"] else 0.0
        ),
        "shed_by_reason": stats["shed_by_reason"],
        "per_domain": stats["per_domain"],
        "conserved": stats["conserved"],
        "p50_ms": quantile(0.50),
        "p95_ms": quantile(0.95),
        "p99_ms": quantile(0.99),
        "decision_crc32": digest,
    }


def sweep_saturation(trace, service_model, n_workers=2, max_batch=32,
                     admission=None, factors=(0.25, 0.5, 0.75, 0.9, 1.0,
                                              1.15, 1.35, 1.6)):
    """Replay the same request sequence at several offered rates.

    The sweep axis is anchored at the service model's steady-state
    capacity bound so the knee always sits inside the swept range.
    Returns the curve (ascending offered rate) with the knee annotated.
    """
    capacity = service_model.capacity_qps(n_workers, max_batch)
    curve = []
    for factor in sorted(factors):
        offered = capacity * factor
        point = simulate_replay(
            trace.at_rate(offered), service_model,
            n_workers=n_workers, max_batch=max_batch, admission=admission,
        )
        point["load_factor"] = factor
        curve.append(point)
    return {
        "capacity_bound_qps": capacity,
        "knee_qps": find_knee(curve),
        "curve": curve,
    }


def find_knee(curve, max_shed=0.01, latency_cap_ms=None):
    """The largest offered rate absorbed without material shedding.

    With bounded queues, overload *must* surface as shed fraction — the
    controller converts queue growth into drops — so the knee is where
    the shed fraction crosses ``max_shed``: the last sweep point at or
    under it, refined by interpolating the crossing toward the first
    point beyond.  ``latency_cap_ms`` optionally also disqualifies
    points whose accepted-request p99 exceeds the cap (for configs whose
    queues are deep enough to hide early saturation in latency).
    Goodput ratios are deliberately not used: on the short traces CI can
    afford, the drain tail inflates the makespan at *every* load level.
    """
    good = None
    first_bad = None
    for point in curve:
        ok = point["shed_fraction"] <= max_shed and (
            latency_cap_ms is None
            or point["p99_ms"] is None
            or point["p99_ms"] <= latency_cap_ms
        )
        if ok and first_bad is None:
            good = point
        elif not ok and good is not None and first_bad is None:
            first_bad = point
    if good is None:
        return None
    knee = good["offered_qps"]
    if first_bad is not None:
        rise = first_bad["shed_fraction"] - good["shed_fraction"]
        if rise > 0:
            span = first_bad["offered_qps"] - good["offered_qps"]
            knee += span * min(
                1.0, (max_shed - good["shed_fraction"]) / rise
            )
    return knee


# ----------------------------------------------------------------------
# Pool parity
# ----------------------------------------------------------------------
def _batched(trace, max_batch):
    """Per-domain batches in arrival order (closed-loop dispatch plan)."""
    pending = {}
    order = []
    batches = []
    for position in range(len(trace)):
        domain = int(trace.domains[position])
        if domain not in pending:
            pending[domain] = []
            order.append(domain)
        pending[domain].append(position)
        if len(pending[domain]) >= max_batch:
            batches.append((domain, pending.pop(domain)))
            order.remove(domain)
    for domain in order:
        batches.append((domain, pending[domain]))
    return batches


def check_pool_parity(pool, model, snapshots, trace, max_batch=32):
    """Bit-parity of pooled scoring across a hot reload under load.

    ``snapshots`` are published to the pool as successive generations;
    the trace's batches are split evenly across them, with each reload
    after the *n*-th chunk issued ``wait=False`` — in-band, while that
    chunk's batches are still queued at the workers.  Every response is
    then compared bitwise against a fresh single-process
    :class:`Predictor` pinned to the generation the response reports.
    """
    batches = _batched(trace, max_batch)
    chunk = -(-len(batches) // len(snapshots))

    class _Pinned:
        def __init__(self, snapshot):
            self._snapshot = snapshot

        def current(self):
            return self._snapshot

    references = {}
    results = []
    for stage, snapshot in enumerate(snapshots):
        generation = pool.generation + 1
        references[generation] = Predictor(model, _Pinned(snapshot))
        # First publish waits (workers must attach before scoring);
        # later ones ride the queues behind in-flight batches.
        results.extend(pool.publish(snapshot, wait=stage == 0))
        for batch_id in range(stage * chunk, min((stage + 1) * chunk,
                                                 len(batches))):
            domain, positions = batches[batch_id]
            pool.submit(
                batch_id, domain,
                trace.users[positions], trace.items[positions],
            )
    results.extend(pool.drain())

    generations_seen = set()
    mismatches = 0
    for _, _, batch_id, generation, version, scores in results:
        generations_seen.add(generation)
        domain, positions = batches[batch_id]
        reference = references[generation]
        # The reference predictors share one model; a predictor's
        # loaded-state memo cannot see the others clobbering it, so force
        # a full reload before every reference score.
        reference.invalidate_caches()
        expected = reference.predict_batch(
            trace.users[positions], trace.items[positions], domain
        )
        if version != reference._store.current().version:
            mismatches += 1
        elif not np.array_equal(scores, np.asarray(expected)):
            mismatches += 1
    return {
        "ok": mismatches == 0 and generations_seen == set(references),
        "batches": len(results),
        "mismatches": mismatches,
        "generations": sorted(generations_seen),
    }

