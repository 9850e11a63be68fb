"""Micro-batching request scheduler for online inference.

Online CTR traffic arrives as single (user, item, domain) lookups, but the
numpy engine — and especially the fused kernels and sparse embedding paths
of ``repro.nn`` — amortizes per-call overhead over rows.  The
:class:`MicroBatcher` coalesces concurrent single-row requests into
per-domain batches under a two-knob policy:

* **size trigger** — a domain's queue flushes the moment it reaches
  ``max_batch_size`` rows;
* **wait trigger** — a non-empty queue older than ``max_wait_us``
  microseconds flushes on the next :meth:`MicroBatcher.poll` **or**
  :meth:`MicroBatcher.submit` — to *any* domain — bounding the latency a
  lone request can pay waiting for company.  Without the submit-side
  check, a sub-``max_batch_size`` queue whose domain never sees another
  arrival would starve until someone happened to poll;
  :meth:`MicroBatcher.next_deadline` tells a clock-driven caller exactly
  when the next wait flush is due, so idle drivers can sleep precisely
  instead of busy-polling.

Batches are per-domain because every row of a batch must be scored under
the same parameters ``Θ_i``.  The clock is injectable so flush policies
are unit-testable without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = ["BatchingPolicy", "PendingRequest", "MicroBatcher"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Flush policy knobs (sizes in rows, waits in microseconds)."""

    max_batch_size: int = 32
    max_wait_us: float = 2000.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_us < 0:
            raise ValueError("max_wait_us must be >= 0")

    @property
    def max_wait_seconds(self):
        return self.max_wait_us * 1e-6


class PendingRequest:
    """One in-flight request; ``result`` is set when its batch flushes."""

    __slots__ = ("user", "item", "domain", "enqueued_at", "completed_at",
                 "result")

    def __init__(self, user, item, domain, enqueued_at):
        self.user = int(user)
        self.item = int(item)
        self.domain = int(domain)
        self.enqueued_at = enqueued_at
        self.completed_at = None
        self.result = None

    @property
    def done(self):
        return self.completed_at is not None

    @property
    def latency(self):
        """Enqueue-to-completion wall time in seconds (None while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at


class MicroBatcher:
    """Coalesces single-row requests into per-domain score batches.

    ``score_batch(users, items, domain)`` is the downstream scorer — in the
    service wiring, :meth:`repro.serving.service.Predictor.predict_batch`.
    ``on_complete(request)`` is invoked per finished request (the service
    hooks its latency recorder here).
    """

    def __init__(self, policy, score_batch, clock=time.perf_counter,
                 on_complete=None):
        self.policy = policy
        self._score_batch = score_batch
        self._clock = clock
        self._on_complete = on_complete
        self._queues = {}
        self._oldest = {}
        self.requests = 0
        self.batches = 0
        self.size_flushes = 0
        self.wait_flushes = 0
        self.forced_flushes = 0
        self.rows_scored = 0

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, user, item, domain):
        """Enqueue one request; may flush its domain on the size trigger.

        Also flushes any queue — in *any* domain — whose oldest request
        exceeded the max wait, so an idle sub-batch cannot starve behind
        traffic that only ever touches other domains.
        """
        now = self._clock()
        request = PendingRequest(user, item, domain, now)
        queue = self._queues.setdefault(request.domain, [])
        if not queue:
            self._oldest[request.domain] = now
        queue.append(request)
        self.requests += 1
        if len(queue) >= self.policy.max_batch_size:
            self._flush_domain(request.domain, "size")
        self._flush_due(now)
        return request

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def poll(self):
        """Flush every queue whose oldest request exceeded the max wait."""
        return self._flush_due(self._clock())

    def next_deadline(self):
        """Clock time at which the oldest queued request becomes overdue.

        ``None`` when nothing is queued.  A clock-driven caller (an
        open-loop dispatcher, a test harness) advances its clock
        to this instant and calls :meth:`poll` — the wait trigger then
        fires even if no request ever arrives again.
        """
        if not self._oldest:
            return None
        return min(self._oldest.values()) + self.policy.max_wait_seconds

    def _flush_due(self, now):
        due = [
            domain for domain, oldest in self._oldest.items()
            if self._queues.get(domain)
            and now - oldest >= self.policy.max_wait_seconds
        ]
        for domain in due:
            self._flush_domain(domain, "wait")
        return len(due)

    def drain(self):
        """Force-flush everything (end of a replay / shutdown)."""
        flushed = 0
        for domain in list(self._queues):
            if self._queues[domain]:
                self._flush_domain(domain, "forced")
                flushed += 1
        return flushed

    def pending(self):
        """Number of enqueued, not-yet-flushed requests."""
        return sum(len(queue) for queue in self._queues.values())

    def _flush_domain(self, domain, reason):
        queue = self._queues[domain]
        self._queues[domain] = []
        self._oldest.pop(domain, None)
        users = np.fromiter((r.user for r in queue), dtype=np.int64,
                            count=len(queue))
        items = np.fromiter((r.item for r in queue), dtype=np.int64,
                            count=len(queue))
        scores = self._score_batch(users, items, domain)
        completed_at = self._clock()
        for request, score in zip(queue, scores):
            request.result = float(score)
            request.completed_at = completed_at
            if self._on_complete is not None:
                self._on_complete(request)
        self.batches += 1
        self.rows_scored += len(queue)
        if reason == "size":
            self.size_flushes += 1
        elif reason == "wait":
            self.wait_flushes += 1
        else:
            self.forced_flushes += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        return {
            "requests": self.requests,
            "batches": self.batches,
            "size_flushes": self.size_flushes,
            "wait_flushes": self.wait_flushes,
            "forced_flushes": self.forced_flushes,
            "rows_scored": self.rows_scored,
            "mean_batch_size": (
                self.rows_scored / self.batches if self.batches else 0.0
            ),
            "pending": self.pending(),
        }
