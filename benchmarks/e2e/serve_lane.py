"""Steady and churn lanes: closed-loop serving through ``PredictorPool``.

Both lanes share one pool worker and one request mix — a request is one
user times ``candidates`` items in one domain, domain / user / item drawn
Zipf-like by ``generate_trace`` (its timestamps are ignored: two clients
that each wait for a reply make a closed loop).

* a **steady** unit replays requests against a frozen snapshot;
* a **churn** unit does the same, but half way through the driver
  publishes a new generation (``SnapshotStore.publish`` of one of two
  differently-seeded trained spaces, then ``pool.publish(wait=False)``)
  while requests are in flight.

The driver polls for replies instead of blocking: a vCPU that halts waits
for the hypervisor to wake it, and on a shared host that wait was the
largest source of run-to-run spread in sizing.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    DomainParameterSpace,
    TrainConfig,
    domain_negotiation_epoch,
    domain_regularization_round,
)
from repro.core.trainer import make_inner_optimizer
from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.data.batching import Batch
from repro.models import build_model
from repro.serving import Predictor, SharedSnapshotArena, SnapshotStore
from repro.traffic import PredictorPool, TraceConfig, generate_trace
from repro.utils.seeding import spawn_rng

from spans import clock, gc_paused, median, percentile

CLIENTS = 2
WARMUP_REQUESTS = 300


class _Pinned:
    """Store facade serving one fixed snapshot (parity references)."""

    def __init__(self, snapshot):
        self._snapshot = snapshot

    def current(self):
        return self._snapshot


def _flat(units):
    return [value for unit in units for value in unit]


def _serving_dataset(sizes, seed):
    specs = tuple(
        DomainSpec(f"S{i}", max(60, int(2000 / (i + 1) ** 0.8)),
                   0.25 + 0.004 * (i % 50))
        for i in range(sizes.serve_domains)
    )
    return generate_dataset(SyntheticConfig(
        name=f"e2e_serve_{sizes.serve_domains}", domains=specs,
        n_users=sizes.serve_users, n_items=sizes.serve_items,
        latent_dim=8, feature_mode="trainable", feature_dim=10, seed=seed,
    ))


def _train_space(model, dataset, config, seed):
    """One compact DN + DR pass, returning the space itself (serving
    publishes from θ_S + deltas so COW has shared structure to exploit)."""
    rng = spawn_rng(seed, "e2e", "serve-train", dataset.name)
    space = DomainParameterSpace(model, dataset.n_domains)
    view, groups = space.training_plan(dataset)
    optimizer = make_inner_optimizer(model, config)
    for _ in range(config.epochs):
        shared = space.shared
        for _ in range(config.dn_rounds):
            shared = domain_negotiation_epoch(
                model, view, shared, config, rng, optimizer=optimizer
            )
        space.set_shared(shared)
        for position, group in enumerate(groups):
            delta = domain_regularization_round(
                model, view, space, position, config, rng,
                delta=space.group_delta(group),
            )
            space.apply_delta(group, delta)
    return space


class ServeLane:
    def __init__(self, sizes, seed, tracer, counts):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.counts = counts
        self.pool = None
        self.attempted = 0
        self.failed = 0
        self.steady_rtt, self.steady_rates = [], []   # one entry per unit
        self.churn_rtt, self.churn_rates = [], []
        self.traced_rtt = []          # steady round trips of traced units
        self.publications = 0
        self.publish_to_serve = []    # seconds, one per publication
        self.publish_parts = []       # (store.publish, pool.publish, ack)
        self.reload_stalls = []
        self.sampled = []             # (request, generation, version, scores)
        self.generation_space = {}    # generation -> index into self.spaces
        self.generation_version = {}

    # -- set-up --------------------------------------------------------
    def setup(self):
        sizes = self.sizes
        self.dataset = _serving_dataset(sizes, self.seed + 1)
        self.model = build_model("mlp", self.dataset, seed=self.seed)
        config = TrainConfig(**sizes.serve_train)
        # Two genuinely different spaces, so a reply scored under the
        # wrong generation cannot pass the parity check by accident.
        self.spaces = [
            _train_space(self.model, self.dataset, config, self.seed),
            _train_space(self.model, self.dataset, config, self.seed + 101),
        ]
        self.store = SnapshotStore(keep=2)
        snapshot = self.store.publish(self.spaces[0])
        self.pool = PredictorPool(self.model, n_workers=1).start()
        self.pool.publish(snapshot)
        self._note_generation(0, snapshot)

    def teardown(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        self.store = self.spaces = self.model = self.dataset = None

    def worker_pids(self):
        return self.pool.worker_pids()

    def _note_generation(self, space_index, snapshot):
        self.generation_space[self.pool.generation] = space_index
        self.generation_version[self.pool.generation] = snapshot.version

    def prepare_inputs(self):
        """Build every request before any clock starts (plain lists and
        ready arrays: the driver must never be the bottleneck)."""
        sizes = self.sizes
        total = (WARMUP_REQUESTS
                 + self.counts["steady"] * sizes.steady_unit_requests
                 + self.counts["churn"] * sizes.churn_unit_requests)
        need = total * (sizes.candidates + 1)
        trace = generate_trace(TraceConfig(
            name="e2e_serve", n_domains=sizes.serve_domains,
            n_users=sizes.serve_users, n_items=sizes.serve_items,
            duration=1.0, mean_qps=need * 1.05 + 1000, slot_seconds=0.05,
            seed=self.seed,
        ))
        if len(trace) < need:
            raise RuntimeError("generated trace is shorter than requested")
        users = trace.users[:total]
        items = trace.items[total:need].reshape(total, sizes.candidates)
        self.domains = trace.domains[:total].tolist()
        self.requests = [
            (self.domains[i],
             np.full(sizes.candidates, users[i], dtype=np.int64),
             np.ascontiguousarray(items[i]))
            for i in range(total)
        ]
        self._next_request = 0

    def warm_up(self):
        self._closed_loop(WARMUP_REQUESTS, CLIENTS, False)

    # -- measured units ------------------------------------------------
    def steady_unit(self, index, traced):
        count = self.sizes.steady_unit_requests
        with self.tracer.span("bench.steady_unit", unit=index), gc_paused():
            start = clock()
            rtts = self._closed_loop(count, CLIENTS, traced)
            self.steady_rates.append(count / (clock() - start))
        self.steady_rtt.append(rtts)
        self.attempted += count
        if traced:
            self.traced_rtt.extend(rtts)

    def churn_unit(self, index, traced):
        count = self.sizes.churn_unit_requests
        with self.tracer.span("bench.churn_unit", unit=index), gc_paused():
            start = clock()
            rtts = self._closed_loop(count, CLIENTS, traced, publish=True)
            self.churn_rates.append(count / (clock() - start))
        self.churn_rtt.append(rtts)
        self.attempted += count

    def _publish(self):
        tracer = self.tracer
        self.publications += 1
        space_index = self.publications % 2
        start = clock()
        with tracer.span("serving.snapshots.publish"):
            snapshot = self.store.publish(self.spaces[space_index])
        stored = clock()
        with tracer.span("traffic.pool.publish"):
            self.pool.publish(snapshot, wait=False)
        self._note_generation(space_index, snapshot)
        return start, stored, clock()

    def _closed_loop(self, count, clients, traced, publish=False):
        """``count`` requests, at most ``clients`` outstanding; returns
        their round-trip times.  With ``publish`` the driver publishes a
        new generation half way through, requests in flight."""
        pool, requests, tracer = self.pool, self.requests, self.tracer
        first = self._next_request
        self._next_request = stop = first + count
        publish_at = first + count // 2 if publish else None
        parity_every = self.sizes.parity_every
        candidates = self.sizes.candidates
        rtts = []
        sent = {}
        published = awaited = None
        last_reply = clock()
        longest_gap = 0.0
        upcoming = first
        while len(rtts) < count:
            while upcoming < stop and len(sent) < clients:
                if upcoming == publish_at:
                    published = self._publish()
                    awaited = pool.generation
                domain, users, items = requests[upcoming]
                begin = clock()
                pool.submit(upcoming, domain, users, items)
                sent[upcoming] = begin
                if traced:
                    tracer.record("traffic.pool.submit", begin, clock(),
                                  request=upcoming)
                upcoming += 1
            for _, _, request, generation, version, scores in \
                    pool.poll_results():
                now = clock()
                begin = sent.pop(request)
                rtts.append(now - begin)
                if scores.shape != (candidates,) or \
                        not np.isfinite(scores).all():
                    self.failed += 1
                if request % parity_every == 0:
                    self.sampled.append((request, generation, version,
                                         scores))
                if traced:
                    tracer.record("traffic.pool.request", begin, now,
                                  detached=True, request=request,
                                  generation=generation)
                if awaited is not None:
                    longest_gap = max(longest_gap, now - last_reply)
                    if generation == awaited:
                        start, stored, flipped = published
                        self.publish_to_serve.append(now - start)
                        self.publish_parts.append(
                            (stored - start, flipped - stored, now - flipped)
                        )
                        self.reload_stalls.append(longest_gap)
                        tracer.record("traffic.pool.reload_ack", flipped,
                                      now, generation=generation)
                        awaited = None
                last_reply = now
        return rtts

    # -- results -------------------------------------------------------
    def samples(self):
        return {
            "steady_req_per_s": self.steady_rates,
            "steady_p50_ms.rtt_s": _flat(self.steady_rtt),
            "churn_req_per_s": self.churn_rates,
            "churn_publish_to_serve_ms.s": self.publish_to_serve,
            "churn_p50_ms.rtt_s": _flat(self.churn_rtt),
        }

    def end_to_end(self):
        return {
            "steady_req_per_s": median(self.steady_rates),
            "steady_p50_ms": median(_flat(self.steady_rtt)) * 1e3,
            "churn_req_per_s": median(self.churn_rates),
            "churn_publish_to_serve_ms": median(self.publish_to_serve) * 1e3,
            "churn_p50_ms": median(_flat(self.churn_rtt)) * 1e3,
        }

    def probe(self):
        """Layer probes of the traced pass: the same requests through an
        in-process ``Predictor``, a bare forward, a one-client round trip,
        and the arena pack timed directly."""
        sizes = self.sizes
        snapshot = self.store.current()
        n = sizes.probe_requests
        requests = self.requests[:n]
        model = build_model("mlp", self.dataset, seed=self.seed)
        out = {}

        predictor = Predictor(model, _Pinned(snapshot))
        score = []
        cold = None
        for position, (domain, users, items) in enumerate(requests):
            if position == 100:
                cold = predictor.cache_stats()
            start = clock()
            predictor.predict_batch(users, items, domain)
            score.append(clock() - start)
        cache = predictor.cache_stats()
        out["serving.service.score_ms_p50"] = median(score) * 1e3
        cold = cold or cache
        for name, stats in (("hit_rate", cache), ("cold_hit_rate", cold)):
            hits = sum(s["static_hits"] + s["dynamic_hits"]
                       for s in stats.values())
            misses = sum(s["misses"] for s in stats.values())
            out[f"serving.embedding_cache.{name}"] = hits / (hits + misses)
        out["serving.embedding_cache.evictions"] = sum(
            s["evictions"] for s in cache.values()
        )

        # model.predict on a state that is already loaded: what is left of
        # score once prepare (dense reload + row-cache scatter) is removed.
        hot = max(set(self.domains[:n]), key=self.domains[:n].count)
        model.load_state_dict(snapshot.state_for(hot))
        forward = []
        labels = np.zeros(sizes.candidates)
        for domain, users, items in requests:
            if domain == hot:
                batch = Batch(users, items, labels, domain)
                start = clock()
                model.predict(batch)
                forward.append(clock() - start)
        out["models.forward_ms_p50"] = median(forward) * 1e3
        out["serving.service.prepare_ms_p50"] = (
            out["serving.service.score_ms_p50"]
            - out["models.forward_ms_p50"]
        )

        self._next_request = 0
        alone = self._closed_loop(min(n, 500), 1, False)
        out["traffic.pool.rtt1_ms_p50"] = median(alone) * 1e3
        out["traffic.pool.ipc_ms_p50"] = (
            out["traffic.pool.rtt1_ms_p50"]
            - out["serving.service.score_ms_p50"]
        )

        pack = []
        for _ in range(5):
            start = clock()
            arena = SharedSnapshotArena.materialize(snapshot, generation=0)
            pack.append(clock() - start)
            out["serving.snapshots.arena_mb"] = arena.nbytes / 1e6
            arena.unlink()
        out["serving.snapshots.arena_materialize_ms_p50"] = median(pack) * 1e3
        cow = snapshot.cow_stats()
        out["serving.snapshots.copied_mb"] = cow["copied_bytes"] / 1e6
        out["serving.snapshots.unique_states"] = cow["unique_states"]
        return out

    def per_layer(self):
        """Call after :meth:`checks` (it counts the parity mismatches)."""
        out = self.probe()
        rtt = self.traced_rtt
        out["traffic.pool.rtt_ms_p50"] = median(rtt) * 1e3
        out["traffic.pool.rtt_ms_p99"] = percentile(rtt, 0.99) * 1e3
        out["traffic.pool.churn_rtt_ms_p99"] = (
            percentile(_flat(self.churn_rtt), 0.99) * 1e3
        )
        submit = self.tracer.seconds("traffic.pool.submit")
        out["traffic.pool.submit_us_mean"] = sum(submit) / len(submit) * 1e6
        domains = self.domains
        out["serving.service.domain_switch_frac"] = sum(
            a != b for a, b in zip(domains, domains[1:])
        ) / (len(domains) - 1)
        out["serving.rows_per_req"] = self.sizes.candidates
        store_publish, pool_publish, ack = zip(*self.publish_parts)
        out["serving.snapshots.publish_ms_p50"] = median(store_publish) * 1e3
        out["traffic.pool.publish_call_ms_p50"] = median(pool_publish) * 1e3
        out["traffic.pool.reload_ack_ms_p50"] = median(ack) * 1e3
        out["traffic.pool.reload_stall_ms_p50"] = (
            median(self.reload_stalls) * 1e3
        )
        out["churn.publishes"] = len(self.publish_to_serve)
        out["churn.parity_mismatches"] = self.parity_mismatches
        return out

    def _parity_mismatches(self):
        """Sampled replies vs a single-process ``Predictor`` pinned to the
        generation each reply reports, bit for bit."""
        model = build_model("mlp", self.dataset, seed=self.seed)
        mismatches = sum(1 for _, generation, _, _ in self.sampled
                         if generation not in self.generation_space)
        for space_index, space in enumerate(self.spaces):
            reference = Predictor(
                model, _Pinned(SnapshotStore(keep=1).publish(space))
            )
            for request, generation, version, scores in self.sampled:
                if self.generation_space.get(generation) != space_index:
                    continue
                domain, users, items = self.requests[request]
                expected = reference.predict_batch(users, items, domain)
                if version != self.generation_version[generation] or \
                        not np.array_equal(scores, expected):
                    mismatches += 1
        return mismatches

    def checks(self):
        self.parity_mismatches = self._parity_mismatches()
        seen = {generation for _, generation, _, _ in self.sampled}
        return {
            "serve.pool_replies_match_pinned_predictor":
                self.parity_mismatches == 0 and len(self.sampled) > 0,
            "serve.every_publication_served":
                len(self.publish_to_serve) == self.publications
                == self.counts["churn"],
            "serve.both_spaces_sampled":
                {self.generation_space.get(g) for g in seen} == {0, 1},
        }
