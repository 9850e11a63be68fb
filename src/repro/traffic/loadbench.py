"""The traffic-bench harness: saturation knee, overload SLOs, pool parity.

Three questions a serving tier must answer before production traffic hits
it, each with its own measurement discipline:

1. **Where is the knee?**  Offered load is swept over the *same* request
   sequence (:meth:`~repro.traffic.tracegen.Trace.at_rate` re-paces the
   timestamps, nothing else) and each point reports achieved QPS,
   p50/p95/p99 of accepted requests, and shed fraction.  The knee is the
   largest offered rate the tier absorbs with <1% shedding while
   delivering ≥95% of it.  Latency is measured from the request's
   *intended arrival time* on the trace clock — the open-loop,
   coordinated-omission-correct definition: when the system falls behind,
   the backlog is charged to the requests that suffered it, instead of
   being silently absorbed by a stalled load generator.

2. **What happens past the knee?**  At 2x the knee the admission
   controller must convert overload into *shedding*, not latency: the
   bench pins that accepted-request p99 stays within the configured SLO
   and that the shed decisions are deterministic (the whole overload run
   replays bit-identically from the trace seed — the controller is
   RNG-free and the replay clock is virtual).

3. **Is the pool still the model?**  Multi-process responses must be
   bit-identical to the single-process :class:`~repro.serving.service
   .Predictor` — including across a hot reload published *mid-trace*,
   where each response is checked against the reference predictor of the
   generation it was actually scored under.

The sweep and overload phases run on a **virtual replay**: an
event-driven simulation over ``n_workers`` servers whose per-batch
service time is an affine model ``a + b * batch_size`` calibrated from
real ``predict_batch`` timings.  On the 1-CPU containers this repo
benches in, N real processes time-slice one core and a wall-clock sweep
would measure the scheduler, not the architecture; the virtual clock
keeps the sweep honest *and* seeded-deterministic.  The real pool is
still exercised — capacity per worker count and the parity/hot-reload
phases run against live forked workers — and the record labels which
numbers came from which mode.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from ..serving.bench import bench_setup, bench_train_rng
from ..serving.service import Predictor
from ..serving.snapshots import SnapshotStore
from ..utils import profiling
from ..utils.journal import update_journal
from ..utils.tables import format_table
from .admission import AdmissionConfig, AdmissionController, DomainSLO
from .pool import PredictorPool, fork_available
from .tracegen import TraceConfig, generate_trace

__all__ = [
    "ServiceTimeModel",
    "calibrate_service_model",
    "simulate_replay",
    "sweep_saturation",
    "find_knee",
    "measure_pool_capacity",
    "check_pool_parity",
    "run_traffic_bench",
    "render_traffic_bench",
    "write_traffic_record",
]

DEFAULT_BENCH_PATH = "BENCH_serving.json"


# ----------------------------------------------------------------------
# Service-time model (drives the virtual replay)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceTimeModel:
    """Affine per-batch service time: ``base + per_row * batch_size``.

    The affine shape is what micro-batching exploits (PR 3's serve-bench:
    per-request cost falls as batches amortize the fixed prepare/forward
    overhead); two calibration points pin it exactly.
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


def calibrate_service_model(predictor, users, items, domain, small=1,
                            large=32, repeats=5):
    """Fit :class:`ServiceTimeModel` from real ``predict_batch`` timings.

    Takes the *minimum* over repeats at each of two batch sizes (minimum,
    not mean: scheduler noise only ever adds time) and solves the 2x2
    affine system.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if len(users) < large:
        raise ValueError(f"need at least {large} calibration rows")

    def best_of(batch_size):
        elapsed = []
        for _ in range(repeats):
            start = time.perf_counter()
            predictor.predict_batch(
                users[:batch_size], items[:batch_size], domain
            )
            elapsed.append(time.perf_counter() - start)
        return min(elapsed)

    predictor.predict_batch(users[:large], items[:large], domain)  # warm up
    t_small = best_of(small)
    t_large = best_of(large)
    per_row = max(0.0, (t_large - t_small) / (large - small))
    base = max(1e-9, t_small - per_row * small)
    return ServiceTimeModel(base_seconds=base, per_row_seconds=per_row)


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
# Real-pool phases
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


def measure_pool_capacity(pool, trace, max_batch=32, max_inflight=None):
    """Closed-loop throughput of a live pool over ``trace``'s requests.

    Closed loop — dispatch as fast as the pool absorbs work, bounded by
    ``max_inflight`` batches — measures *capacity*, deliberately ignoring
    the trace timestamps (those belong to the open-loop phases).
    """
    batches = _batched(trace, max_batch)
    if max_inflight is None:
        max_inflight = 2 * pool.n_workers
    done = 0
    start = time.perf_counter()
    for batch_id, (domain, positions) in enumerate(batches):
        while pool.inflight >= max_inflight:
            done += sum(
                len(batches[m[2]][1]) for m in pool.drain(expected=1)
            )
        pool.submit(
            batch_id, domain,
            trace.users[positions], trace.items[positions],
        )
    done += sum(len(batches[m[2]][1]) for m in pool.drain())
    elapsed = time.perf_counter() - start
    return {
        "mode": "real",
        "n_workers": pool.n_workers,
        "requests": done,
        "batches": len(batches),
        "elapsed_seconds": elapsed,
        "qps": done / elapsed if elapsed > 0 else 0.0,
    }


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


# ----------------------------------------------------------------------
# The bench
# ----------------------------------------------------------------------
def run_traffic_bench(worker_counts=(1, 2), n_requests=640, mean_qps=2000.0,
                      max_batch=32, seed=0, epochs=1, n_domains=4,
                      overload_factor=2.0, verbose=False, session=None):
    """Train, publish, sweep, overload, verify; returns the record dict.

    ``session`` (a :class:`repro.train.SessionConfig`) may override model
    architecture, seed and training hyper-parameters, as with serve-bench.
    """
    from ..core import TrainConfig, train_space

    seed, dataset, model, config = bench_setup(
        session, seed, n_domains,
        TrainConfig(epochs=epochs, batch_size=64, inner_steps=2, dr_steps=1,
                    sample_k=1),
    )
    space = train_space(model, dataset, config,
                        bench_train_rng(seed, dataset))
    # A genuinely different second parameter space for the hot-reload
    # phase: different training seed, so generation attribution is
    # provable (identical spaces would make any generation "correct").
    space_reloaded = train_space(model, dataset, config,
                                 bench_train_rng(seed + 101, dataset))

    store = SnapshotStore(keep=4)
    snapshot_a = store.publish(space)
    snapshot_b = store.publish(space_reloaded)

    duration = n_requests / mean_qps
    trace = generate_trace(TraceConfig(
        name="traffic-bench",
        n_domains=dataset.n_domains,
        n_users=dataset.n_users,
        n_items=dataset.n_items,
        duration=duration,
        mean_qps=mean_qps,
        arrival="bursty",
        diurnal_amplitude=0.3,
        diurnal_period=duration,
        slot_seconds=duration / 64.0,
        seed=seed,
    ))

    # Calibrate the service-time model from the real single-process path.
    reference = Predictor(model, store)
    domain_hot = int(trace.domains[0]) if len(trace) else 0
    service_model = calibrate_service_model(
        reference, trace.users, trace.items, domain_hot,
    )

    # Phase 1: real-pool closed-loop capacity per worker count.
    capacity = {}
    parity = {"ok": None, "skipped": "fork unavailable"}
    if fork_available():
        for count in worker_counts:
            with PredictorPool(model, n_workers=count) as pool:
                pool.publish(store.current())
                capacity[f"workers={count}"] = measure_pool_capacity(
                    pool, trace, max_batch=max_batch,
                )
        # Phase 2: bit-parity across a hot reload under load.
        parity_workers = max(worker_counts)
        with PredictorPool(model, n_workers=parity_workers) as pool:
            parity = check_pool_parity(
                pool, model, [snapshot_a, snapshot_b], trace,
                max_batch=max_batch,
            )
            parity["n_workers"] = parity_workers

    # Phase 3: virtual saturation sweep (seeded-deterministic).
    sweep_workers = max(worker_counts)
    # The SLO scales with the measured service time (a wall-clock floor
    # would leave deadlines so lax that a short trace's transient
    # overload is fully absorbed by queueing and nothing ever sheds).
    # p99 >= 2.5x the max-batch service time guarantees the deadline
    # (0.6 * p99) plus one batch's service fits inside the SLO.
    slo_p99_ms = max(
        1.0, 4.0 * service_model.service_seconds(max_batch) * 1e3
    )
    slo = DomainSLO(p99_ms=slo_p99_ms, max_queue=4 * max_batch)
    admission = AdmissionConfig(policy="fair", default_slo=slo)
    saturation = sweep_saturation(
        trace, service_model, n_workers=sweep_workers,
        max_batch=max_batch, admission=admission,
    )

    # Phase 4: overload at 2x the knee — shed deterministically, keep
    # the accepted-request p99 inside the SLO.
    knee = saturation["knee_qps"]
    overload = None
    if knee is not None:
        overload_trace = trace.at_rate(knee * overload_factor)
        first = simulate_replay(
            overload_trace, service_model, n_workers=sweep_workers,
            max_batch=max_batch, admission=admission,
        )
        second = simulate_replay(
            overload_trace, service_model, n_workers=sweep_workers,
            max_batch=max_batch, admission=admission,
        )
        overload = dict(first)
        overload["slo_p99_ms"] = slo_p99_ms
        overload["deterministic"] = (
            first["decision_crc32"] == second["decision_crc32"]
        )
        overload["within_slo"] = bool(
            first["p99_ms"] is not None and first["p99_ms"] <= slo_p99_ms
        )
        overload["policy"] = admission.policy

    record = {
        "dataset": dataset.name,
        "n_domains": dataset.n_domains,
        "n_requests": len(trace),
        "mean_qps": mean_qps,
        "max_batch": max_batch,
        "seed": seed,
        "service_model": {
            "base_us": service_model.base_seconds * 1e6,
            "per_row_us": service_model.per_row_seconds * 1e6,
        },
        "capacity": capacity,
        "parity": parity,
        "saturation": saturation,
        "overload": overload,
    }
    if verbose:
        print(render_traffic_bench(record))
    return record


def render_traffic_bench(record):
    """Human-readable tables for one traffic-bench record."""
    out = []
    if record["capacity"]:
        rows = [
            [key, f"{entry['qps']:.1f}", str(entry["requests"]),
             f"{entry['elapsed_seconds'] * 1e3:.1f}"]
            for key, entry in record["capacity"].items()
        ]
        out.append(format_table(
            ["Pool", "QPS", "Requests", "Elapsed ms"], rows,
            title=f"traffic-bench capacity on {record['dataset']} "
                  "(closed loop, real processes)",
        ))
    saturation = record["saturation"]
    rows = [
        [
            f"{point['load_factor']:.2f}",
            f"{point['offered_qps']:.0f}",
            f"{point['achieved_qps']:.0f}",
            "-" if point["p99_ms"] is None else f"{point['p99_ms']:.2f}",
            f"{100 * point['shed_fraction']:.1f}%",
        ]
        for point in saturation["curve"]
    ]
    knee = saturation["knee_qps"]
    out.append(format_table(
        ["Load", "Offered QPS", "Achieved QPS", "p99 ms", "Shed"], rows,
        title="saturation sweep (virtual replay, "
              f"knee={'-' if knee is None else f'{knee:.0f}'} qps)",
    ))
    overload = record["overload"]
    if overload is not None:
        out.append(
            f"overload @{overload['offered_qps']:.0f} qps: "
            f"accepted p99 {overload['p99_ms']:.2f} ms "
            f"(SLO {overload['slo_p99_ms']:.0f} ms, "
            f"within={overload['within_slo']}), "
            f"shed {100 * overload['shed_fraction']:.1f}% "
            f"deterministic={overload['deterministic']}"
        )
    parity = record["parity"]
    out.append(
        f"pool parity: ok={parity['ok']} "
        f"(generations {parity.get('generations', [])})"
    )
    return "\n".join(out)


def write_traffic_record(record, path=DEFAULT_BENCH_PATH):
    """Merge ``record`` into ``benchmarks.traffic_bench`` at ``path``."""
    return update_journal(path, "traffic_bench", lambda entry: record)
