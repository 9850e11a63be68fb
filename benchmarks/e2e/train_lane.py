"""Train lane: offline MAMDR fits through ``repro.train.Session``.

A unit is one ``Session.fit()`` on a pre-built dataset.  A traced unit
instead re-runs the ``MAMDR.fit`` loop from its public pieces, with a span
around every call into ``core`` / ``metrics`` and the repo's op profiler
on; it must reach the same mean AUC as ``Session.fit`` to the last bit.
"""

from __future__ import annotations

import math

from repro.core import (
    DomainParameterSpace,
    TrainConfig,
    domain_negotiation_epoch,
    domain_regularization_round,
)
from repro.core.selection import PerDomainTracker
from repro.core.trainer import make_inner_optimizer
from repro.data import dataset_by_name
from repro.frameworks.base import StateBank
from repro.metrics import evaluate_bank
from repro.models import build_model
from repro.train import Session, SessionConfig
from repro.utils import profiling
from repro.utils.seeding import spawn_rng

from spans import clock, median

DATASET = "taobao30_sim"

# profiler op names -> the per-layer metric they feed
_NN_OPS = {
    "nn.step_s": ("train.step",),
    "nn.optim_s": ("optim.step",),
    "nn.dense_fwd_s": ("dense.fused_forward",),
    "nn.dense_bwd_s": ("dense.fused_backward",),
    "nn.embed_fwd_s": ("embedding.forward",),
    "nn.embed_bwd_s": ("embedding.backward.sparse",
                       "embedding.backward.dense"),
    "nn.loss_s": ("loss.bce_fused_forward", "loss.bce_fused_backward"),
}
_SPAN_METRICS = {
    "core.negotiation": "core.negotiation.busy_s",
    "core.regularization": "core.regularization.busy_s",
    "core.param_space": "core.param_space.busy_s",
    "core.selection": "core.selection.busy_s",
    "metrics.evaluate": "metrics.evaluate_s",
}


class TrainLane:
    def __init__(self, sizes, seed, tracer):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.fit_seconds = []         # untraced Session.fit wall times
        self.aucs = []                # mean AUC of every fit, either kind
        self.ops = {}                 # profiler op -> [calls, seconds]

    # -- set-up --------------------------------------------------------
    def setup(self):
        start = clock()
        self.dataset = dataset_by_name(
            DATASET, scale=self.sizes.train_scale, seed=self.seed
        )
        self.build_seconds = clock() - start
        self.config = SessionConfig(
            dataset=DATASET, scale=self.sizes.train_scale, model="mlp",
            framework="mamdr", seed=self.seed,
            train=TrainConfig(epochs=self.sizes.train_epochs),
        )

    def teardown(self):
        self.dataset = None

    # -- measured units ------------------------------------------------
    def unit(self, index, traced):
        if traced:
            auc = self._decomposed_fit(index)
        else:
            start = clock()
            auc = Session(self.config, dataset=self.dataset).fit().mean_auc
            self.fit_seconds.append(clock() - start)
        self.aucs.append(auc)

    def _decomposed_fit(self, index):
        """``MAMDR.fit`` (DN + DR, dense store) spelled out, call by call."""
        span = self.tracer.span
        dataset, config = self.dataset, self.config.train
        with profiling.profile() as prof, span("train.fit", fit=index):
            model = build_model(self.config.model, dataset,
                                seed=self.config.effective_model_seed)
            rng = spawn_rng(self.config.seed, "mamdr", dataset.name,
                            True, True)
            with span("core.param_space"):
                space = DomainParameterSpace(model, dataset.n_domains)
                view, groups = space.training_plan(dataset)
            tracker = PerDomainTracker(dataset.n_domains)
            optimizer = make_inner_optimizer(model, config)
            for _ in range(config.epochs):
                shared = space.shared
                for _ in range(config.dn_rounds):
                    with span("core.negotiation"):
                        shared = domain_negotiation_epoch(
                            model, view, shared, config, rng,
                            optimizer=optimizer,
                        )
                with span("core.param_space"):
                    space.set_shared(shared)
                for position, group in enumerate(groups):
                    with span("core.param_space"):
                        delta = space.group_delta(group)
                    with span("core.regularization"):
                        delta = domain_regularization_round(
                            model, view, space, position, config, rng,
                            delta=delta,
                        )
                    with span("core.param_space"):
                        space.apply_delta(group, delta)
                with span("core.selection"):
                    tracker.update_from_space(model, dataset, space)
            bank = StateBank(model, tracker.best_states(),
                             default_state=space.shared)
            with span("metrics.evaluate"):
                report = evaluate_bank(bank, dataset,
                                       method=self.config.method_label)
        for name, stats in prof.ops.items():
            entry = self.ops.setdefault(name, [0, 0.0])
            entry[0] += stats.calls
            entry[1] += stats.seconds
        return report.mean_auc

    # -- results -------------------------------------------------------
    @property
    def attempted(self):
        return len(self.aucs)

    @property
    def failed(self):
        return sum(1 for auc in self.aucs if not math.isfinite(auc))

    def samples(self):
        return {"train_samples_per_s.fit_s": self.fit_seconds}

    def end_to_end(self):
        samples = (self.sizes.train_epochs
                   * self.dataset.total_interactions("train"))
        return {"train_samples_per_s": samples / median(self.fit_seconds)}

    def per_layer(self):
        """Per-fit means over the traced (decomposed) fits."""
        tracer = self.tracer
        fits = len(tracer.seconds("train.fit"))
        out = {"data.build_s": self.build_seconds}
        for name, metric in _SPAN_METRICS.items():
            out[metric] = sum(tracer.seconds(name)) / fits
        for name in ("core.negotiation", "core.regularization"):
            out[f"{name}.calls"] = len(tracer.seconds(name)) / fits
        for metric, ops in _NN_OPS.items():
            out[metric] = sum(self.ops.get(op, (0, 0.0))[1]
                              for op in ops) / fits
        out["nn.steps"] = self.ops["train.step"][0] / fits
        out["core.state_algebra_s"] = (
            out["core.negotiation.busy_s"]
            + out["core.regularization.busy_s"] - out["nn.step_s"]
        )
        # What the fit span does not hand to a child span: model build,
        # trackers, the StateBank copy.
        out["train.unattributed_frac"] = (
            tracer.self_seconds()["train.fit"]
            / sum(tracer.seconds("train.fit"))
        )
        return out

    def checks(self, traced):
        # Training is deterministic per seed: every fit of a run — and the
        # decomposed loop, when the run traced one — must agree exactly.
        digests = {auc.hex() for auc in self.aucs}
        name = ("train.auc_identical_session_and_decomposed" if traced
                else "train.auc_identical_across_fits")
        return {name: len(digests) == 1 and self.failed == 0}
