"""End-to-end continual-learning simulation: stream → train → gate → serve.

``run_online_sim`` drives the full Section IV-E loop on the drifted
synthetic stream:

1. **bootstrap** — ingest a few windows, run the first incremental
   updates, publish version 1 (calibration-gated only: there is no
   baseline yet) and freeze a copy as the "day-0" model;
2. per subsequent window: **prequential evaluation** (score the currently
   served snapshot *and* the frozen day-0 model on the unseen window —
   test-then-train, so every AUC is honest), drift monitoring, ingestion,
   one incremental DN/DR update, and a gated publication;
3. one window's candidate is deliberately **corrupted** (seeded parameter
   noise) to exercise the reject → rollback → quarantine path — the gate
   must catch it and serving must keep answering from the last good
   version;
4. a final **parity audit**: the serving tier's answers must be
   bit-identical to an offline model loaded via the parameter space's
   ``load_combined`` states.

The incremental-vs-frozen AUC gap over the drifting tail is the payoff
metric: it quantifies how much continual retraining buys once the world
has rotated away from day 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..core import TrainConfig
from ..models import build_model
from ..serving.service import Predictor
from ..serving.snapshots import SnapshotStore
from ..train.session import ConfigError, _coerce
from ..utils import profiling
from ..utils.seeding import spawn_rng
from .drift import DriftMonitor
from .gate import GateConfig, ValidationGate
from .publisher import GatedPublisher
from .stream import EventStream, StreamConfig
from .trainer import IncrementalTrainer

__all__ = ["OnlineSimConfig", "build_sim_config", "run_online_sim",
           "render_online_sim"]


def _online_train_config():
    """Compact DN/DR schedule for micro-epoch updates.

    An incremental update sees ~10^2-10^3 events, not a full offline
    corpus; a couple of DN rounds with a few minibatch steps per domain
    visit keeps update latency in the hundreds of milliseconds while
    still moving θ_S/θ_i meaningfully each window.
    """
    return TrainConfig(
        epochs=1, batch_size=96, inner_steps=3, dn_rounds=2,
        sample_k=2, dr_steps=2,
    )


@dataclass(frozen=True)
class OnlineSimConfig:
    """Everything the online simulation needs, JSON-friendly."""

    stream: StreamConfig = field(default_factory=StreamConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    train: TrainConfig = field(default_factory=_online_train_config)
    model: str = "mlp"
    model_kwargs: dict = field(default_factory=dict)
    backend: str = "local"          # "local" | "cluster"
    n_workers: int = 2
    bootstrap_windows: int = 2      # windows ingested before version 1
    bootstrap_updates: int = 2      # updates before the first publication
    replay_capacity: int = 1600
    holdout_frac: float = 0.25
    holdout_capacity: int = 200
    keep_versions: int = 3
    inject_regression_at: int | None = 5   # window whose candidate is corrupted
    regression_scale: float = 3.0
    parity_samples: int = 64
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.stream, dict):
            object.__setattr__(
                self, "stream", _coerce(StreamConfig, self.stream, "stream")
            )
        if isinstance(self.gate, dict):
            object.__setattr__(
                self, "gate", _coerce(GateConfig, self.gate, "gate")
            )
        if isinstance(self.train, dict):
            object.__setattr__(
                self, "train", _coerce(TrainConfig, self.train, "train")
            )
        if not 1 <= self.bootstrap_windows < self.stream.n_windows:
            raise ConfigError(
                "bootstrap_windows must leave at least one stream window "
                "for incremental updates"
            )
        if self.bootstrap_updates < 1:
            raise ConfigError("need at least one bootstrap update")
        if self.inject_regression_at is not None and not (
            self.bootstrap_windows
            <= self.inject_regression_at
            < self.stream.n_windows - 1
        ):
            raise ConfigError(
                "inject_regression_at must name a post-bootstrap window "
                "before the final one (the last publication must be clean "
                "for the serving parity audit)"
            )

    def updated(self, **changes):
        return replace(self, **changes)


def build_sim_config(session_config):
    """Derive an :class:`OnlineSimConfig` from a ``SessionConfig``.

    The session's ``online`` dict section overrides any field here;
    ``seed`` and ``train`` default to the session's own.  Unknown keys
    raise :class:`~repro.train.ConfigError` (same contract as the
    session itself).
    """
    data = dict(session_config.online or {})
    known = {f.name for f in fields(OnlineSimConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown online config keys: {sorted(unknown)}"
        )
    data.setdefault("seed", session_config.seed)
    data.setdefault("train", session_config.train)
    data.setdefault("model", session_config.model)
    data.setdefault("model_kwargs", dict(session_config.model_kwargs))
    return OnlineSimConfig(**data)


def _domain_aucs(gate, snapshot, tables):
    """Per-domain AUC of ``snapshot`` on a window's two-class tables."""
    return {
        domain: gate.score_state(snapshot.state_for(domain), table, domain)[0]
        for domain, table in tables.items()
    }


def _two_class_tables(window):
    return {
        domain: table
        for domain, (table, _times) in window.per_domain().items()
        if len(np.unique(table.labels)) == 2
    }


def _corrupt_states(states, seed, key, scale):
    """A deliberately broken candidate (simulates a corrupted artifact)."""
    rng = spawn_rng(seed, "online", "inject", key)
    return {
        domain: {
            name: value + rng.normal(0.0, scale, size=value.shape)
            for name, value in state.items()
        }
        for domain, state in states.items()
    }


def run_online_sim(config=None, verbose=False, log=None):
    """Run the continual pipeline end to end; returns a results dict."""
    config = config or OnlineSimConfig()
    if log is None:
        log = print if verbose else (lambda _msg: None)
    stream = EventStream(config.stream)
    skeleton = stream.skeleton_dataset()
    n_domains = config.stream.n_domains

    def make_model():
        return build_model(config.model, skeleton, seed=config.seed,
                           **dict(config.model_kwargs))

    model = make_model()
    probe = make_model()      # gate scoring + offline evaluation skeleton
    serve_model = make_model()
    trainer = IncrementalTrainer(
        model, n_domains, config.train,
        backend=config.backend,
        replica_factory=make_model if config.backend == "cluster" else None,
        n_workers=config.n_workers,
        replay_capacity=config.replay_capacity,
        holdout_frac=config.holdout_frac,
        holdout_capacity=config.holdout_capacity,
        dataset_name=config.stream.name,
        n_users=config.stream.n_users,
        n_items=config.stream.n_items,
        seed=config.seed,
    )
    store = SnapshotStore(keep=config.keep_versions)
    publisher = GatedPublisher(store, ValidationGate(probe, config.gate))
    monitor = DriftMonitor(config.stream.n_items, seed=config.seed)
    predictor = Predictor(serve_model, store)

    with profiling.profile() as prof:
        # ---- bootstrap -------------------------------------------------
        for index in range(config.bootstrap_windows):
            window = stream.window(index)
            monitor.observe(window)
            trainer.ingest(window)
        for round_index in range(config.bootstrap_updates):
            update = trainer.update(key=("bootstrap", round_index))
        result = publisher.publish(
            update.states, update.default_state, trainer.holdouts,
            key=config.bootstrap_windows - 1,
            metadata={"watermark": trainer.last_watermark},
        )
        frozen = store.current()          # the day-0 model, by reference
        parity_states = update.states
        served_key = config.bootstrap_windows - 1
        log(f"bootstrap: published v{result.version} "
            f"(mean AUC {result.decision.mean_auc:.4f})")

        # ---- steady state ---------------------------------------------
        window_records = []
        staleness = []
        for index in range(config.bootstrap_windows, config.stream.n_windows):
            window = stream.window(index)
            # Prequential: score before training ever sees this window.
            tables = _two_class_tables(window)
            current = store.current()
            incremental = _domain_aucs(publisher.gate, current, tables)
            day0 = _domain_aucs(publisher.gate, frozen, tables)
            staleness.append(index - 1 - served_key)
            drift_record = monitor.observe(window)

            trainer.ingest(window)
            update = trainer.update(key=index)

            candidate = update.states
            injected = index == config.inject_regression_at
            if injected:
                candidate = _corrupt_states(
                    candidate, config.seed, index, config.regression_scale
                )
            result = publisher.publish(
                candidate, update.default_state, trainer.holdouts,
                key=index, metadata={"watermark": trainer.last_watermark},
            )
            if result.accepted:
                served_key = index
                parity_states = update.states
            probe.load_state_dict(trainer.space.shared)
            conflict = monitor.conflict(probe, update.dataset, key=index)
            window_records.append({
                "window": index,
                "drift": window.drift,
                "watermark": window.watermark,
                "incremental_auc": float(np.mean(list(incremental.values()))),
                "frozen_auc": float(np.mean(list(day0.values()))),
                "incremental_auc_by_domain": incremental,
                "frozen_auc_by_domain": day0,
                "injected_regression": injected,
                "accepted": result.accepted,
                "served_version": result.served_version,
                "conflict_rate": conflict["conflict_rate"],
                "max_item_psi": max(
                    entry["item_psi"]
                    for entry in drift_record["domains"].values()
                ),
            })
            log(
                f"window {index}: drift={window.drift:.2f} "
                f"auc inc={window_records[-1]['incremental_auc']:.4f} "
                f"frozen={window_records[-1]['frozen_auc']:.4f} "
                + ("REJECTED (rolled back "
                   f"to v{result.served_version})" if not result.accepted
                   else f"published v{result.version}")
            )

        # ---- serving parity audit --------------------------------------
        parity = _parity_audit(
            predictor, store, probe, stream, parity_states, config
        )

    post = [r for r in window_records
            if r["window"] >= config.stream.n_windows // 2]
    results = {
        "settings": {
            "seed": config.seed,
            "backend": config.backend,
            "n_windows": config.stream.n_windows,
            "window_events": config.stream.window_events,
            "n_domains": n_domains,
            "drift_rate": config.stream.drift_rate,
            "inject_regression_at": config.inject_regression_at,
        },
        "events": {
            "total": config.stream.n_windows * config.stream.window_events,
        },
        # one per bootstrap round plus one per steady-state window
        "updates": config.bootstrap_updates + len(window_records),
        "staleness": {
            "mean_windows": float(np.mean(staleness)) if staleness else 0.0,
            "max_windows": int(max(staleness)) if staleness else 0,
        },
        "publications": {
            "accepted": len(publisher.accepted_versions),
            "accepted_versions": list(publisher.accepted_versions),
            "rejected": len(publisher.quarantine),
            "quarantine": [q.as_dict() for q in publisher.quarantine],
            "served_version": store.version,
        },
        "auc_over_time": window_records,
        "post_drift_auc": {
            "incremental": float(np.mean(
                [r["incremental_auc"] for r in post]
            )),
            "frozen": float(np.mean([r["frozen_auc"] for r in post])),
        },
        "drift": monitor.history,
        "parity": parity,
        "profile": prof.as_dict(),
    }
    results["post_drift_auc"]["gain"] = (
        results["post_drift_auc"]["incremental"]
        - results["post_drift_auc"]["frozen"]
    )
    return results


def _parity_audit(predictor, store, probe, stream, parity_states, config):
    """Serving answers must be bit-identical to the offline forward."""
    from ..data.batching import Batch

    rng = spawn_rng(config.seed, "online", "parity")
    exact = True
    max_abs_diff = 0.0
    for domain in sorted(parity_states):
        users = rng.choice(stream.user_pools[domain],
                           size=config.parity_samples)
        items = rng.choice(stream.item_pools[domain],
                           size=config.parity_samples)
        served = predictor.predict_batch(users, items, domain)
        probe.load_state_dict(parity_states[domain])
        offline = probe.predict(
            Batch(users, items, np.zeros(len(users)), domain)
        )
        exact = exact and bool(np.array_equal(served, offline))
        max_abs_diff = max(
            max_abs_diff, float(np.abs(served - offline).max())
        )
    return {
        "exact": exact,
        "max_abs_diff": max_abs_diff,
        "served_version": store.version,
        "n_requests": config.parity_samples * len(parity_states),
    }


def render_online_sim(results):
    """Human-readable summary of an online-sim run."""
    from ..utils.tables import format_table

    rows = [
        [
            str(r["window"]),
            f"{r['drift']:.2f}",
            f"{r['incremental_auc']:.4f}",
            f"{r['frozen_auc']:.4f}",
            f"{r['max_item_psi']:.3f}",
            f"{r['conflict_rate']:.2f}",
            ("rejected" if not r["accepted"]
             else f"v{r['served_version']}"),
        ]
        for r in results["auc_over_time"]
    ]
    table = format_table(
        ["Window", "Drift", "AUC (incr)", "AUC (day-0)", "Item PSI",
         "Conflict", "Published"],
        rows, title="Online continual-learning simulation",
    )
    pubs = results["publications"]
    post = results["post_drift_auc"]
    lines = [
        table,
        "",
        f"events: {results['events']['total']}, "
        f"updates: {results['updates']}",
        f"publications: {pubs['accepted']} accepted "
        f"{pubs['rejected']} rejected; serving v{pubs['served_version']}",
        f"staleness: mean {results['staleness']['mean_windows']:.1f} "
        f"windows (max {results['staleness']['max_windows']})",
        f"post-drift AUC: incremental {post['incremental']:.4f} vs "
        f"day-0 {post['frozen']:.4f} (gain {post['gain']:+.4f})",
        "serving parity: "
        + ("bit-exact with offline load_combined"
           if results["parity"]["exact"]
           else f"MISMATCH (max |Δ| {results['parity']['max_abs_diff']:.2e})"),
    ]
    return "\n".join(lines)

