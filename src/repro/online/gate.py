"""Pre-publication validation gate for incremental model candidates.

Before a candidate ``{domain: Θ_i}`` reaches the serving tier it must
clear two per-domain guards, scored on the trainer's **held-out recent
window** (never trained on, most recent by watermark):

* **AUC regression** — the candidate's holdout AUC may not fall more than
  ``max_auc_drop`` below the currently-served snapshot's AUC on the same
  holdout.  The baseline is re-scored on today's holdout rather than read
  from yesterday's gate record, so natural drift degrades both models
  equally and only *relative* regressions (a bad update) trip the guard.
* **Calibration** — the candidate's mean predicted CTR must stay within
  ``max_ctr_ratio_error`` (relative) of the holdout's empirical CTR.  An
  update can improve ranking while wrecking the output scale; calibration
  failures poison downstream bidding even when AUC looks fine.

Domains with fewer than ``min_samples`` holdout rows are recorded but not
enforced — a 5-event micro-epoch in a sparse domain cannot veto a
publication.  The gate itself never mutates the store; acceptance and
rollback are the publisher's job (:mod:`repro.online.publisher`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.batching import full_batch
from ..metrics.auc import auc_score
from ..serving.service import RowLoader
from ..utils import profiling

__all__ = ["GateConfig", "DomainVerdict", "GateDecision", "ValidationGate"]


@dataclass(frozen=True)
class GateConfig:
    """Guard thresholds for candidate publication."""

    max_auc_drop: float = 0.08        # vs. currently-served baseline
    max_ctr_ratio_error: float = 0.6  # |predicted/empirical - 1|
    min_samples: int = 30             # enforce only on domains this large
    min_auc: float | None = None      # optional absolute floor
    bootstrap_ctr_slack: float = 1.5  # calibration multiplier when no baseline

    def __post_init__(self):
        if self.max_auc_drop < 0:
            raise ValueError("max_auc_drop must be >= 0")
        if self.max_ctr_ratio_error <= 0:
            raise ValueError("max_ctr_ratio_error must be > 0")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.bootstrap_ctr_slack < 1.0:
            raise ValueError("bootstrap_ctr_slack must be >= 1")


@dataclass(frozen=True)
class DomainVerdict:
    """One domain's scores and guard outcomes."""

    domain: int
    n_samples: int
    auc: float
    baseline_auc: float | None
    predicted_ctr: float
    empirical_ctr: float
    enforced: bool
    reasons: tuple = ()

    @property
    def passed(self):
        return not self.reasons

    @property
    def auc_drop(self):
        if self.baseline_auc is None:
            return 0.0
        return self.baseline_auc - self.auc

    @property
    def calibration_error(self):
        return abs(self.predicted_ctr / self.empirical_ctr - 1.0)

    def as_dict(self):
        return {
            "domain": self.domain,
            "n_samples": self.n_samples,
            "auc": self.auc,
            "baseline_auc": self.baseline_auc,
            "auc_drop": self.auc_drop,
            "predicted_ctr": self.predicted_ctr,
            "empirical_ctr": self.empirical_ctr,
            "calibration_error": self.calibration_error,
            "enforced": self.enforced,
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class GateDecision:
    """The gate's overall verdict over all scoreable domains."""

    accepted: bool
    verdicts: dict = field(default_factory=dict)

    @property
    def reasons(self):
        out = []
        for domain in sorted(self.verdicts):
            out.extend(self.verdicts[domain].reasons)
        return out

    @property
    def mean_auc(self):
        aucs = [v.auc for v in self.verdicts.values()]
        if not aucs:
            raise ValueError("gate decision has no scored domains")
        return float(np.mean(aucs))

    def as_dict(self):
        return {
            "accepted": self.accepted,
            "mean_auc": self.mean_auc,
            "reasons": self.reasons,
            "domains": {
                str(d): v.as_dict() for d, v in sorted(self.verdicts.items())
            },
        }


class ValidationGate:
    """Scores candidates on held-out windows against the live baseline.

    ``model`` is a probe skeleton used only for forward passes —
    :meth:`~repro.models.base.CTRModel.predict` runs in eval mode and
    consumes no RNG, so probing never perturbs training determinism.
    States reach it through the serving row path: per state the dense
    parameters and the embedding rows of the holdout's ids, not the tables.
    """

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or GateConfig()
        self._loader = RowLoader(model)

    def score_state(self, state, holdout, domain):
        """(auc, predicted_ctr) of one state on one holdout table."""
        batch = full_batch(holdout, domain)
        self._loader.load(state, batch.users, batch.items)
        scores = self.model.predict(batch)
        return (
            float(auc_score(holdout.labels, scores)),
            float(scores.mean()),
        )

    def evaluate(self, states, holdouts, baseline=None):
        """Gate a candidate ``{domain: Θ_i}`` against recent holdouts.

        ``baseline`` is the currently-served :class:`ModelSnapshot` (or
        ``None`` for the bootstrap publication, which then faces only the
        calibration and absolute-AUC guards — the calibration bound
        widened by ``bootstrap_ctr_slack``, since a day-0 model has had
        only a handful of updates to find the output scale and there is
        nothing better to serve instead).  Returns a
        :class:`GateDecision`; every scoreable domain gets a verdict.
        """
        start = profiling.tick()
        config = self.config
        ctr_bound = config.max_ctr_ratio_error
        if baseline is None:
            ctr_bound = ctr_bound * config.bootstrap_ctr_slack
        verdicts = {}
        for domain in sorted(holdouts):
            holdout = holdouts[domain]
            if len(np.unique(holdout.labels)) < 2:
                continue
            auc, predicted_ctr = self.score_state(
                states[domain], holdout, domain
            )
            baseline_auc = None
            if baseline is not None:
                baseline_auc, _ = self.score_state(
                    baseline.state_for(domain), holdout, domain
                )
            empirical_ctr = float(holdout.labels.mean())
            enforced = len(holdout) >= config.min_samples
            reasons = []
            if enforced:
                if (
                    baseline_auc is not None
                    and baseline_auc - auc > config.max_auc_drop
                ):
                    reasons.append(
                        f"domain {domain}: AUC dropped "
                        f"{baseline_auc - auc:.4f} > {config.max_auc_drop} "
                        f"({baseline_auc:.4f} -> {auc:.4f})"
                    )
                if config.min_auc is not None and auc < config.min_auc:
                    reasons.append(
                        f"domain {domain}: AUC {auc:.4f} below floor "
                        f"{config.min_auc}"
                    )
                ratio_error = abs(predicted_ctr / empirical_ctr - 1.0)
                if ratio_error > ctr_bound:
                    reasons.append(
                        f"domain {domain}: CTR miscalibrated — predicted "
                        f"{predicted_ctr:.4f} vs empirical "
                        f"{empirical_ctr:.4f} "
                        f"(ratio error {ratio_error:.3f} > {ctr_bound})"
                    )
            verdicts[domain] = DomainVerdict(
                domain=domain,
                n_samples=len(holdout),
                auc=auc,
                baseline_auc=baseline_auc,
                predicted_ctr=predicted_ctr,
                empirical_ctr=empirical_ctr,
                enforced=enforced,
                reasons=tuple(reasons),
            )
        if not verdicts:
            raise ValueError(
                "gate has no scoreable holdout (need a two-class holdout "
                "in at least one domain)"
            )
        decision = GateDecision(
            accepted=all(v.passed for v in verdicts.values()),
            verdicts=verdicts,
        )
        profiling.tock("online.gate_evaluate", start)
        profiling.count(
            "online.gate_accepted" if decision.accepted
            else "online.gate_rejected"
        )
        return decision
