"""Drift monitoring: population stability and gradient conflict over time.

Serving health in a continual pipeline hinges on noticing *when* the
world moved, not just reacting after AUC collapses.  Two complementary
signals are tracked per stream window and emitted through
:mod:`repro.utils.profiling` (so any active profile — the online-sim
run, the chaos harness — collects them for free):

* **Population stability index** (PSI), the standard industry drift
  score: ``PSI = Σ (p_cur - p_ref) ln(p_cur / p_ref)`` over a binned
  distribution.  The monitor tracks it per domain for the *item* traffic
  distribution (which items get impressions — shifts under popularity
  drift and rate skew) and for the realized label rate.  Common reading:
  < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major shift.
* **Gradient conflict** (Section III-B of the paper): the fraction of
  domain pairs whose loss gradients point against each other at the
  current shared parameters, via :mod:`repro.analysis.conflict`.  Under
  concept drift the domains' optima move apart, so a rising conflict
  rate is an early-warning signal that one shared update can no longer
  serve all domains — exactly the regime MAMDR's DN/DR targets.

The monitor is reference-based: the first observed window (day 0)
freezes the reference histograms, and every later window is scored
against them.
"""

from __future__ import annotations

import numpy as np

from ..analysis.conflict import conflict_report
from ..utils import profiling
from ..utils.seeding import spawn_rng

__all__ = ["population_stability_index", "DriftMonitor"]


def population_stability_index(reference, current, eps=1e-4):
    """PSI between two aligned probability vectors (same binning).

    Both inputs are clamped away from zero and renormalized, so empty
    bins contribute a large-but-finite score instead of ``inf``.
    """
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if reference.shape != current.shape:
        raise ValueError("PSI needs aligned distributions")
    if reference.sum() <= 0 or current.sum() <= 0:
        raise ValueError("PSI needs non-empty distributions")
    reference = np.maximum(reference / reference.sum(), eps)
    reference = reference / reference.sum()
    current = np.maximum(current / current.sum(), eps)
    current = current / current.sum()
    return float(((current - reference) * np.log(current / reference)).sum())


def _item_histogram(items, n_items, n_bins):
    """Impression counts folded into ``n_bins`` fixed item buckets.

    Laplace-smoothed (+0.5 per bucket) so a bucket empty in one window
    but hot in another contributes a large-but-bounded PSI term instead
    of being dominated by the epsilon clamp.
    """
    bins = np.minimum(items * n_bins // n_items, n_bins - 1)
    return np.bincount(bins, minlength=n_bins).astype(np.float64) + 0.5


class DriftMonitor:
    """Per-domain drift scores for a stream of windows.

    Parameters
    ----------
    n_items:
        Size of the item universe (fixes the PSI binning).
    n_bins:
        Item-histogram resolution; 10 smoothed buckets keeps the
        same-distribution noise floor (≈ 2·bins/samples) well below the
        drift signal at micro-epoch sample sizes.
    seed:
        Drives the conflict probe's batch sampling (namespaced per call).
    """

    def __init__(self, n_items, n_bins=10, seed=0):
        self.n_items = n_items
        self.n_bins = n_bins
        self.seed = seed
        self.reference = None      # {domain: item histogram}
        self.reference_ctr = None  # {domain: label rate}
        self.history = []

    def observe(self, window):
        """Score one window against the day-0 reference; returns a record.

        The first window observed becomes the reference and scores 0 PSI
        by construction.
        """
        histograms = {}
        ctrs = {}
        for domain, (table, _times) in window.per_domain().items():
            histograms[domain] = _item_histogram(
                table.items, self.n_items, self.n_bins
            )
            ctrs[domain] = float(table.labels.mean())
        if self.reference is None:
            self.reference = histograms
            self.reference_ctr = ctrs
        record = {"window": window.index, "watermark": window.watermark,
                  "domains": {}}
        for domain, histogram in histograms.items():
            reference = self.reference.get(domain)
            if reference is None:   # domain first seen after day 0
                self.reference[domain] = histogram
                self.reference_ctr[domain] = ctrs[domain]
                reference = histogram
            psi = population_stability_index(reference, histogram)
            ctr_shift = ctrs[domain] - self.reference_ctr[domain]
            record["domains"][domain] = {
                "item_psi": psi,
                "ctr": ctrs[domain],
                "ctr_shift": ctr_shift,
            }
            profiling.observe(f"online.psi.domain{domain}", psi)
            profiling.observe(f"online.ctr_shift.domain{domain}", ctr_shift)
        self.history.append(record)
        return record

    def conflict(self, model, dataset, key, batch_size=256):
        """Gradient-conflict probe at the current shared parameters.

        ``dataset`` is the trainer's current window dataset (replay
        buffers as train splits); ``key`` namespaces the probe's batch
        sampling so monitoring never perturbs training RNG streams.
        """
        rng = spawn_rng(self.seed, "online", "conflict", key)
        report = conflict_report(model, dataset, rng, batch_size=batch_size)
        profiling.observe("online.conflict_rate", report["conflict_rate"])
        profiling.observe("online.mean_cosine", report["mean_cosine"])
        if self.history:
            self.history[-1]["conflict"] = report
        return report
