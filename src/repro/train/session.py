"""One-call training facade: ``Session(config).fit()``.

Historically the repo had three ways to train a model, each with its own
construction ritual:

* build a model + instantiate a framework and call ``framework.fit``;
* describe a :class:`~repro.experiments.runner.MethodSpec` and call
  ``run_method``;
* build a per-worker model factory and drive a
  :class:`~repro.distributed.cluster.SimulatedCluster` by hand.

:class:`Session` folds all three behind one frozen, serializable config:
pick a dataset, a model, a framework *or* a distributed cluster setup,
and call :meth:`Session.fit`.  The same JSON config file drives the
``python -m repro.cli train`` command, the fault-injection chaos harness
and ``python -m repro.cli online-sim``, so an experiment is fully
described by one artifact.

A Session adds no training logic of its own — it mirrors the historical
construction paths exactly, so results are byte-identical with driving
the underlying objects by hand (``tests/train/test_session.py`` pins this).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from ..core import TrainConfig
from ..data import dataset_by_name
from ..distributed import FaultPlan, RetryPolicy, SimulatedCluster
from ..frameworks import framework_by_name
from ..metrics import evaluate_bank
from ..models import build_model
from ..serving import SnapshotStore

__all__ = ["ConfigError", "DistributedConfig", "Session", "SessionConfig",
           "SessionResult"]


class ConfigError(ValueError):
    """A session config is malformed (unknown key, bad nested section).

    Subclasses ``ValueError`` so existing ``except ValueError`` handlers
    (and tests) keep working; exists so config mistakes surface as one
    catchable, clearly-worded type instead of a bare ``TypeError`` from
    deep inside a dataclass constructor.
    """


def _coerce(cls, data, section):
    """Build nested config ``cls`` from a dict with a clear error."""
    try:
        return cls(**data)
    except TypeError as exc:
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        detail = f"unknown keys {unknown}" if unknown else str(exc)
        raise ConfigError(
            f"invalid {section!r} section in session config: {detail}"
        ) from exc


@dataclass(frozen=True)
class DistributedConfig:
    """Cluster setup for a distributed session (Section IV-E runtime)."""

    n_workers: int = 4
    mode: str = "async"
    outer_optimizer: str | None = None
    use_dr: bool = False
    max_staleness: int | None = None
    heartbeat_timeout: int | None = 2
    checkpoint_path: str | None = None
    checkpoint_every: int = 1
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None

    def __post_init__(self):
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.faults, dict):
            object.__setattr__(
                self, "faults",
                _coerce(FaultPlan, self.faults, "distributed.faults"),
            )
        if isinstance(self.retry, dict):
            object.__setattr__(
                self, "retry",
                _coerce(RetryPolicy, self.retry, "distributed.retry"),
            )

    def to_dict(self):
        # asdict() would recurse into FaultPlan, whose mappingproxy
        # fields cannot be deep-copied — serialize nested configs by hand.
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("faults", "retry")
        }
        out["faults"] = None if self.faults is None else self.faults.as_dict()
        out["retry"] = None if self.retry is None else asdict(self.retry)
        return out


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one training run.

    ``seed`` drives training-time randomness (batch order, DR sampling);
    ``model_seed`` drives parameter initialization and defaults to
    ``seed``.  With ``distributed`` set, the run goes through the
    simulated PS-Worker cluster instead of an in-process framework, and
    ``framework`` is ignored.

    ``warm_start_snapshot`` names a snapshot file (as written by
    ``SnapshotStore.save``) whose shared state initializes the model
    before training — the continual-learning hook.
    ``online`` is an optional plain-dict section of continual-pipeline
    knobs (stream/gate/trainer overrides) consumed by
    :func:`repro.online.sim.build_sim_config`; it rides along untouched
    so one JSON artifact also describes an online run.
    """

    dataset: str = "taobao10_sim"
    scale: float = 1.0
    model: str = "mlp"
    framework: str = "mamdr"
    seed: int = 0
    model_seed: int | None = None
    method: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    distributed: DistributedConfig | None = None
    model_kwargs: dict = field(default_factory=dict)
    framework_kwargs: dict = field(default_factory=dict)
    warm_start_snapshot: str | None = None
    online: dict | None = None

    def __post_init__(self):
        if isinstance(self.train, dict):
            object.__setattr__(
                self, "train", _coerce(TrainConfig, self.train, "train")
            )
        if isinstance(self.distributed, dict):
            object.__setattr__(
                self, "distributed",
                _coerce(DistributedConfig, self.distributed, "distributed"),
            )
        if self.online is not None and not isinstance(self.online, dict):
            raise ConfigError(
                "the 'online' section must be a JSON object of "
                f"continual-pipeline knobs, got {type(self.online).__name__}"
            )

    @property
    def effective_model_seed(self):
        return self.seed if self.model_seed is None else self.model_seed

    @property
    def method_label(self):
        if self.method is not None:
            return self.method
        suffix = "cluster" if self.distributed is not None else self.framework
        return f"{self.model}+{suffix}"

    def updated(self, **changes):
        return replace(self, **changes)

    def to_dict(self):
        """JSON-serializable image; round-trips through :meth:`from_dict`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["train"] = asdict(self.train)
        out["distributed"] = (
            None if self.distributed is None else self.distributed.to_dict()
        )
        out["model_kwargs"] = dict(self.model_kwargs)
        out["framework_kwargs"] = dict(self.framework_kwargs)
        out["online"] = None if self.online is None else dict(self.online)
        return out

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown session config keys: {sorted(unknown)}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        """Load a config from a JSON file (the CLI's ``--config``)."""
        with open(Path(path), "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass(frozen=True)
class SessionResult:
    """What a finished session hands back."""

    bank: object
    report: object
    stats: dict | None = None

    @property
    def mean_auc(self):
        return self.report.mean_auc


class Session:
    """Train per one :class:`SessionConfig`; the unified entrypoint.

    ``dataset`` may be passed explicitly (experiment code that already
    built one); otherwise it is constructed from the config's dataset
    name and scale.
    """

    def __init__(self, config, dataset=None):
        if isinstance(config, dict):
            config = SessionConfig.from_dict(config)
        self.config = config
        self._dataset = dataset
        self.cluster = None
        self._warm_start = None

    def build_dataset(self):
        if self._dataset is not None:
            return self._dataset
        return dataset_by_name(self.config.dataset, scale=self.config.scale)

    def build_model(self, dataset, seed=None):
        seed = self.config.effective_model_seed if seed is None else seed
        model = build_model(self.config.model, dataset, seed=seed,
                            **dict(self.config.model_kwargs))
        warm = self.warm_start_state()
        if warm is not None:
            model.load_state_dict(warm)
        return model

    def warm_start_state(self):
        """The shared state θ_S from ``warm_start_snapshot`` (cached).

        Loaded through ``SnapshotStore.load``, so a truncated or
        corrupted snapshot fails here with a clear error instead of
        silently training from garbage.
        """
        if self.config.warm_start_snapshot is None:
            return None
        if self._warm_start is None:
            default = SnapshotStore().load(
                self.config.warm_start_snapshot
            ).default_state
            if default is None:
                raise ConfigError(
                    f"warm-start snapshot {self.config.warm_start_snapshot!r} "
                    "has no default (shared) state"
                )
            self._warm_start = default
        return self._warm_start

    def fit(self, profiler=None):
        """Run the configured training and return a :class:`SessionResult`.

        ``profiler`` may be a :class:`repro.utils.profiling.Profile`; when
        given, training runs inside it.
        """
        dataset = self.build_dataset()
        if profiler is not None:
            with profiler:
                bank, stats = self._train(dataset)
        else:
            bank, stats = self._train(dataset)
        report = evaluate_bank(bank, dataset,
                               method=self.config.method_label)
        return SessionResult(bank=bank, report=report, stats=stats)

    def _train(self, dataset):
        if self.config.distributed is not None:
            return self._train_cluster(dataset)
        model = self.build_model(dataset)
        framework = framework_by_name(self.config.framework,
                                      **dict(self.config.framework_kwargs))
        bank = framework.fit(model, dataset, self.config.train,
                             seed=self.config.seed)
        return bank, None

    def _train_cluster(self, dataset):
        dist = self.config.distributed
        self.cluster = SimulatedCluster(
            n_workers=dist.n_workers,
            mode=dist.mode,
            outer_optimizer=dist.outer_optimizer,
            fault_plan=dist.faults,
            retry_policy=dist.retry,
            max_staleness=dist.max_staleness,
            heartbeat_timeout=dist.heartbeat_timeout,
            checkpoint_path=dist.checkpoint_path,
            checkpoint_every=dist.checkpoint_every,
        )
        bank = self.cluster.run(
            lambda worker_id: self.build_model(dataset),
            dataset, self.config.train, seed=self.config.seed,
            use_dr=dist.use_dr,
        )
        return bank, self.cluster.stats()
