"""Loop lane: the ROADMAP "prod-sim", one stream window per unit.

Set-up archives a drifted ``EventStream`` to an ``RPROCOL1`` file,
bootstraps an ``IncrementalTrainer`` and publishes version 1 to a pool
worker.  Each unit then runs, sequentially::

    StreamArchive.window -> trainer.ingest -> trainer.update
      -> GatedPublisher.publish -> pool.publish(wait=False)
      -> open-loop replay of the window's first events

The replay offers single-row requests at their Poisson arrival times
(``trace_from_stream``) through a ``fair`` ``AdmissionController``, takes
per-domain batches of at most ``max_batch`` rows, keeps at most
``max_inflight`` batches at the worker, and times every request from its
*intended* arrival.  One candidate is corrupted (seeded parameter noise,
as ``online/sim.py`` does) and must be rejected and rolled back.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.core import TrainConfig
from repro.data.batching import Batch
from repro.models import build_model
from repro.online import (
    GateConfig,
    GatedPublisher,
    IncrementalTrainer,
    ValidationGate,
)
from repro.online.stream import (
    EventStream,
    StreamArchive,
    StreamConfig,
    write_stream,
)
from repro.serving import SnapshotStore
from repro.traffic import (
    AdmissionConfig,
    AdmissionController,
    DomainSLO,
    PredictorPool,
    trace_from_stream,
)
from repro.utils import profiling
from repro.utils.seeding import spawn_rng

from spans import clock, gc_paused, median, percentile


class LoopLane:
    def __init__(self, sizes, seed, tracer, counts, scratch_dir):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.units = counts["loop"]
        self.scratch_dir = Path(scratch_dir)
        self.pool = self.archive = self.path = None
        # The bad candidate sits mid-run and never last: the final
        # publication must be clean for the serving parity audit.
        self.inject_at = min(self.units // 2, self.units - 2)
        self.unit_seconds = []
        self.replay_seconds = []      # scheduled (trace) time per unit
        self.publish_to_serve = []
        self.latency = []             # arrival -> reply, answered requests
        self.gen_lag = []             # per unit: offer time - due time
        self.queue_wait = []
        self.batch_rows = []
        self.staleness = []
        self.offered = self.answered = 0
        self.within_slo = []          # per unit: share answered in time
        self.accepted_publications = self.rejected_publications = 0
        self.rollback_ok = False
        self.seconds = {}             # layer call -> [seconds, ...]
        self.nn_seconds = 0.0         # profiler train.step, traced units
        self.gate_seconds = []        # profiler gate evaluate, traced units

    # -- set-up --------------------------------------------------------
    def setup(self):
        sizes = self.sizes
        config = StreamConfig(
            name="e2e_loop", n_domains=sizes.loop_domains,
            n_users=sizes.loop_users, n_items=sizes.loop_items,
            n_windows=sizes.bootstrap_windows + self.units,
            window_events=sizes.window_events, seed=self.seed,
        )
        self.stream = EventStream(config)
        self.scratch_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.scratch_dir / "stream.rprocol"
        start = clock()
        write_stream(self.path, self.stream)
        self.write_seconds = clock() - start
        self.file_mb = self.path.stat().st_size / 1e6
        start = clock()
        self.archive = StreamArchive.open(self.path)
        self.open_seconds = clock() - start

        skeleton = self.stream.skeleton_dataset()

        def make_model():
            return build_model("mlp", skeleton, seed=self.seed)

        self.probe = make_model()
        self.trainer = IncrementalTrainer(
            make_model(), sizes.loop_domains, TrainConfig(**sizes.loop_train),
            replay_capacity=sizes.replay_capacity,
            holdout_capacity=sizes.holdout_capacity,
            dataset_name=config.name, n_users=sizes.loop_users,
            n_items=sizes.loop_items, seed=self.seed,
        )
        self.store = SnapshotStore(keep=3)
        self.publisher = GatedPublisher(
            self.store, ValidationGate(self.probe, GateConfig(**sizes.gate))
        )
        for index in range(sizes.bootstrap_windows):
            self.trainer.ingest(self.archive.window(index))
        update = self.trainer.update(key=("bootstrap", 0))
        self.served_key = sizes.bootstrap_windows - 1
        self._gated_publish(update, update.states, self.served_key)
        self.pool = PredictorPool(make_model(), n_workers=1).start()
        self.pool.publish(self.store.current())
        # No deadline shedding: a request the host stalled is answered
        # late and misses the limit, it does not become a failed operation
        # (the workload is sized so that nothing is ever shed).
        self.admission = AdmissionController(AdmissionConfig(
            policy="fair", shed_deadline=False,
            default_slo=DomainSLO(p99_ms=sizes.slo_ms, max_queue=256),
        ))

    def teardown(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        if self.archive is not None:
            self.archive.close()
            self.archive = None
        if self.path is not None:
            self.path.unlink(missing_ok=True)
        self.stream = self.trainer = self.store = self.publisher = None

    def worker_pids(self):
        return self.pool.worker_pids()

    def prepare_inputs(self):
        """Per-unit replay inputs as plain lists, built before any clock
        starts: indexing numpy scalars inside the offer loop made the
        *driver* the bottleneck in sizing."""
        sizes = self.sizes
        self.replays = []
        for unit in range(self.units):
            trace = trace_from_stream(
                self.archive, sizes.replay_qps,
                windows=[sizes.bootstrap_windows + unit], seed=self.seed,
            ).head(sizes.replay_events)
            self.replays.append((
                trace.times.tolist(), trace.domains.tolist(),
                trace.users.tolist(), trace.items.tolist(),
            ))

    # -- measured units ------------------------------------------------
    def unit(self, unit, traced):
        sizes = self.sizes
        index = sizes.bootstrap_windows + unit
        started = clock()
        # The repo's op profiler splits an update into nn and state
        # algebra; it is part of tracing and stays off otherwise.
        with self.tracer.span("bench.loop_unit", window=index), \
                (profiling.profile() if traced else nullcontext()) as prof:
            window = self._timed("online.stream.window",
                                 self.archive.window, index)
            self.staleness.append(index - 1 - self.served_key)
            self._timed("online.trainer.ingest", self.trainer.ingest, window)
            update = self._timed("online.trainer.update",
                                 self.trainer.update, key=index)
            updated = clock()
            candidate = update.states
            if unit == self.inject_at:
                candidate = self._corrupted(candidate, index)
            previous = self.store.version
            result = self._timed("online.publisher.publish",
                                 self._gated_publish, update, candidate,
                                 index)
            if unit == self.inject_at:
                self.rollback_ok = (not result.accepted
                                    and result.served_version == previous
                                    and self.store.version == previous)
            awaited = None
            if result.accepted:
                self._timed("traffic.pool.publish", self.pool.publish,
                            self.store.current(), wait=False)
                awaited = self.pool.generation
            with gc_paused():
                flipped = self._replay(unit, traced, awaited)
            if awaited is not None and flipped is not None:
                self.publish_to_serve.append(flipped - updated)
        self.unit_seconds.append(clock() - started)
        if traced:
            self.nn_seconds += prof.ops["train.step"].seconds
            self.gate_seconds.append(
                prof.ops["online.gate_evaluate"].seconds
            )

    def _timed(self, name, call, *args, **kwargs):
        """Call into a layer; clocked whether or not the unit is traced
        (the end-to-end update time comes from here), a span when it is."""
        start = clock()
        result = call(*args, **kwargs)
        self._tally(name, start, clock())
        return result

    def _tally(self, name, start, end):
        self.seconds.setdefault(name, []).append(end - start)
        self.tracer.record(name, start, end)

    def _gated_publish(self, update, candidate, key):
        result = self.publisher.publish(
            candidate, update.default_state, self.trainer.holdouts, key=key,
            metadata={"watermark": self.trainer.last_watermark},
        )
        if result.accepted:
            self.accepted_publications += 1
            self.served_key = key
            self.parity_states = update.states
        else:
            self.rejected_publications += 1
        return result

    def _corrupted(self, states, key):
        rng = spawn_rng(self.seed, "e2e", "inject", key)
        scale = self.sizes.regression_scale
        return {
            domain: {name: value + rng.normal(0.0, scale, size=value.shape)
                     for name, value in state.items()}
            for domain, state in states.items()
        }

    def _replay(self, unit, traced, awaited):
        """Open-loop replay of one window; returns when the first reply
        tagged with generation ``awaited`` arrived (or ``None``)."""
        arrivals, domains, users, items = self.replays[unit]
        pool, admission, tracer = self.pool, self.admission, self.tracer
        sizes = self.sizes
        limit = sizes.slo_ms * 1e-3
        n = len(arrivals)
        self.replay_seconds.append(arrivals[-1])
        batches = {}
        lag = []
        flipped = None
        offered = answered = in_time = 0
        base = clock()
        while offered < n or admission.queued() or pool.inflight:
            now = clock() - base
            while offered < n and arrivals[offered] <= now:
                # Queue age counts from the intended arrival, not from
                # when a late generator got round to offering.
                begin = clock()
                admission.offer(offered, domains[offered], arrivals[offered])
                if traced:
                    self._tally("traffic.admission.offer", begin, clock())
                lag.append(now - arrivals[offered])
                offered += 1
            for _, _, batch_id, generation, _, scores in pool.poll_results():
                now = clock() - base
                rows = batches.pop(batch_id)
                if flipped is None and generation == awaited:
                    flipped = base + now
                if len(scores) != len(rows) or \
                        not np.isfinite(scores).all():
                    continue    # no valid reply: counted as failed
                for row in rows:
                    waited = now - arrivals[row]
                    self.latency.append(waited)
                    if waited <= limit:
                        in_time += 1
                answered += len(rows)
            if pool.inflight < sizes.max_inflight:
                begin = clock()
                taken = admission.take(sizes.max_batch, begin - base)
                if traced:
                    self._tally("traffic.admission.take", begin, clock())
                if taken is not None:
                    domain, rows = taken
                    batch_id = (unit, rows[0])
                    batches[batch_id] = rows
                    dispatched = clock() - base
                    pool.submit(batch_id, domain,
                                [users[row] for row in rows],
                                [items[row] for row in rows])
                    self.batch_rows.append(len(rows))
                    for row in rows:
                        self.queue_wait.append(dispatched - arrivals[row])
        self.offered += n
        self.answered += answered
        self.gen_lag.append(lag)
        self.within_slo.append(in_time / n)
        if traced:
            tracer.record("traffic.open.replay", base, clock(), unit=unit,
                          offered=n, answered=answered)
        return flipped

    # -- results -------------------------------------------------------
    @property
    def attempted(self):
        return self.offered

    @property
    def failed(self):
        """Requests with no valid reply: shed by admission, or answered
        with scores of the wrong shape or not finite."""
        return self.offered - self.answered

    def samples(self):
        return {
            "loop_update_ms.s": self.seconds["online.trainer.update"],
            "loop_publish_to_serve_ms.s": self.publish_to_serve,
            "loop_within_slo_frac": self.within_slo,
        }

    def end_to_end(self):
        events = self.units * self.sizes.window_events
        training_wall = sum(self.unit_seconds) - sum(self.replay_seconds)
        return {
            "loop_train_events_per_s": events / training_wall,
            "loop_update_ms":
                median(self.seconds["online.trainer.update"]) * 1e3,
            "loop_publish_to_serve_ms": median(self.publish_to_serve) * 1e3,
            # The median window: one window that a host stall emptied
            # is not the system's share of requests answered in time.
            "loop_within_slo_frac": median(self.within_slo),
        }

    def per_layer(self):
        def mean_us(name):
            return sum(self.seconds[name]) / len(self.seconds[name]) * 1e6

        def p50_ms(name):
            return median(self.tracer.seconds(name)) * 1e3

        stats = self.admission.stats()
        return {
            "data.columnar.write_s": self.write_seconds,
            "data.columnar.file_mb": self.file_mb,
            "data.columnar.open_ms": self.open_seconds * 1e3,
            "online.stream.window_ms_p50": p50_ms("online.stream.window"),
            "online.trainer.ingest_ms_p50": p50_ms("online.trainer.ingest"),
            "online.trainer.update_nn_frac":
                self.nn_seconds
                / sum(self.tracer.seconds("online.trainer.update")),
            "online.publisher.publish_ms_p50":
                p50_ms("online.publisher.publish"),
            "online.gate.evaluate_ms_p50": median(self.gate_seconds) * 1e3,
            "online.publications_accepted": self.accepted_publications,
            "online.publications_rejected": self.rejected_publications,
            "online.staleness_windows_mean":
                sum(self.staleness) / len(self.staleness),
            "traffic.admission.offer_us_mean":
                mean_us("traffic.admission.offer"),
            "traffic.admission.take_us_mean":
                mean_us("traffic.admission.take"),
            "traffic.admission.queue_wait_ms_p50":
                median(self.queue_wait) * 1e3,
            "traffic.admission.queue_wait_ms_p99":
                percentile(self.queue_wait, 0.99) * 1e3,
            "traffic.admission.shed_frac": stats["shed"] / stats["offered"],
            "traffic.admission.batch_rows_mean":
                sum(self.batch_rows) / len(self.batch_rows),
            "traffic.open.accepted_p50_ms": median(self.latency) * 1e3,
            "traffic.open.accepted_p99_ms":
                percentile(self.latency, 0.99) * 1e3,
            "traffic.tracegen.gen_lag_ms_p99":
                percentile(self._lags(), 0.99) * 1e3,
        }

    def _lags(self):
        return [lag for unit in self.gen_lag for lag in unit]

    def checks(self):
        stats = self.admission.stats()
        checks = {
            "loop.injected_candidate_rejected_and_rolled_back":
                self.rollback_ok,
            "loop.serving_matches_load_combined": self._serving_parity(),
            "loop.admission_conserved":
                stats["conserved"] and stats["offered"] == self.offered,
        }
        limit = self.sizes.max_gen_lag_ms
        if limit is not None:
            checks["loop.generator_kept_up"] = (
                median(self._lags()) * 1e3 <= limit
            )
        return checks

    def _serving_parity(self):
        """The pool's answers under the last accepted publication vs an
        offline model loaded with that update's combined states."""
        rng = spawn_rng(self.seed, "e2e", "loop-parity")
        n = self.sizes.parity_samples
        exact = True
        for domain in sorted(self.parity_states):
            users = rng.choice(self.stream.user_pools[domain], size=n)
            items = rng.choice(self.stream.item_pools[domain], size=n)
            served = self.pool.score(users, items, domain)
            self.probe.load_state_dict(self.parity_states[domain])
            offline = self.probe.predict(
                Batch(users, items, np.zeros(n), domain)
            )
            exact = exact and bool(np.array_equal(served, offline))
        return exact

