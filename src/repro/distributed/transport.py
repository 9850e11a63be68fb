"""Message-level transport between workers and the parameter server.

Every PS↔worker interaction goes through a :class:`Channel` carrying typed
request/response messages — the explicit failure surface the Section IV-E
deployment has and the old in-process simulation lacked.  The stack:

* **Messages** — frozen dataclasses (:class:`PullDenseRequest`,
  :class:`PullRowsRequest`, :class:`PushRequest`,
  :class:`HeartbeatRequest`) answered by a single :class:`Response`
  stamped with the PS version.  Pushes carry a ``request_id`` and the
  ``base_version`` the worker trained from, which is what makes dedup and
  bounded-staleness rejection possible server-side.
* **Channels** — :class:`DirectChannel` calls the server handler
  in-process (the no-fault fast path, byte-identical to calling the PS
  directly); :class:`FaultyChannel` wraps another channel and injects the
  faults a :class:`~repro.distributed.faults.FaultPlan` schedules.
* **Recovery** — :func:`call_with_retry` retries failed deliveries with
  exponential backoff plus seeded jitter against a :class:`VirtualClock`
  (simulated time, so tests are instant), and :class:`PSClient` exposes
  the familiar ``pull_dense`` / ``pull_embedding_rows`` / ``push_delta``
  surface on top, reusing one request id across retries of the same
  logical push so the server can deduplicate at-least-once deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import profiling
from .faults import DELIVER, DROP, DUPLICATE, TIMEOUT, WorkerCrashed

__all__ = [
    "PullDenseRequest",
    "PullRowsRequest",
    "PushRequest",
    "HeartbeatRequest",
    "Response",
    "TransportError",
    "MessageDropped",
    "ReplyLost",
    "DeliveryFailed",
    "VirtualClock",
    "Channel",
    "DirectChannel",
    "FaultyChannel",
    "RetryPolicy",
    "call_with_retry",
    "PSClient",
]


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PullDenseRequest:
    """Ask for all non-embedding parameters."""

    worker_id: object
    request_id: str


@dataclass(frozen=True)
class PullRowsRequest:
    """Ask for specific rows of one embedding table."""

    worker_id: object
    request_id: str
    table: str
    ids: object  # ndarray/sequence of row ids


@dataclass(frozen=True)
class PushRequest:
    """Push an outer-loop delta (Eq. 3).

    ``request_id`` is reused verbatim when the client retries the same
    logical push, so the server can apply it exactly once.
    ``base_version`` is the PS version the worker pulled before training;
    the server rejects pushes staler than its ``max_staleness``.
    """

    worker_id: object
    request_id: str
    base_version: int
    dense_delta: dict
    embedding_deltas: dict


@dataclass(frozen=True)
class HeartbeatRequest:
    """Liveness beacon; ``tick`` is the sender's virtual-clock reading."""

    worker_id: object
    request_id: str
    tick: float


@dataclass(frozen=True)
class Response:
    """Server answer to any request, stamped with the PS version."""

    version: int
    payload: object = None
    accepted: bool = True
    duplicate: bool = False
    reason: str = ""


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class TransportError(RuntimeError):
    """Base class for failed deliveries (retryable)."""


class MessageDropped(TransportError):
    """The request never reached the server."""


class ReplyLost(TransportError):
    """The server processed the request, but the reply was lost.

    Indistinguishable from :class:`MessageDropped` at the client — the
    reason pushes must be idempotent.
    """


class DeliveryFailed(TransportError):
    """Retries exhausted without a successful round trip."""


# ----------------------------------------------------------------------
# Clock and channels
# ----------------------------------------------------------------------
class VirtualClock:
    """Deterministic simulated time shared by a cluster's channels."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def advance(self, seconds):
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds


class Channel:
    """A failable request/response pipe to the parameter server."""

    def call(self, request):
        """Deliver ``request`` and return the server's :class:`Response`.

        Raises a :class:`TransportError` subclass on failed delivery, or
        :class:`~repro.distributed.faults.WorkerCrashed` when the sending
        worker is scheduled to die on this message.
        """
        raise NotImplementedError


class DirectChannel(Channel):
    """In-process delivery straight to the server's message handler."""

    def __init__(self, server):
        self._server = server

    def call(self, request):
        return self._server.handle(request)


class FaultyChannel(Channel):
    """Wraps a channel and injects the faults a plan schedules.

    All draws come from the plan's own seeded generator for this worker,
    so fault timing is reproducible and independent of training RNG.
    """

    def __init__(self, inner, plan, worker_id, clock=None):
        self._inner = inner
        self._plan = plan
        self._worker_id = worker_id
        self._clock = clock if clock is not None else VirtualClock()
        self._rng = plan.channel_rng(worker_id)
        self.messages_sent = 0

    def call(self, request):
        self.messages_sent += 1
        if self._plan.crashes_at(self._worker_id, self.messages_sent):
            raise WorkerCrashed(self._worker_id, self.messages_sent)
        delay = self._plan.delay_for(self._worker_id)
        if delay:
            self._clock.advance(delay)
        action = self._plan.decide(self._rng)
        if action == DROP:
            profiling.count("transport.drop")
            raise MessageDropped(
                f"request {request.request_id} from worker "
                f"{self._worker_id!r} dropped"
            )
        if action == TIMEOUT:
            # The server *does* process the request; only the reply dies.
            self._inner.call(request)
            profiling.count("transport.timeout")
            raise ReplyLost(
                f"reply to {request.request_id} for worker "
                f"{self._worker_id!r} lost"
            )
        if action == DUPLICATE:
            profiling.count("transport.duplicate")
            self._inner.call(request)
            return self._inner.call(request)
        assert action == DELIVER
        return self._inner.call(request)


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter over a virtual clock."""

    max_attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")

    def backoff(self, attempt, rng=None):
        """Virtual seconds to wait after failed attempt ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


def call_with_retry(channel, request, policy, rng=None, clock=None,
                    on_retry=None):
    """Deliver ``request`` through ``channel``, retrying transport faults.

    The *same* request object (hence the same ``request_id``) is re-sent on
    every attempt — with server-side dedup this yields exactly-once
    application on top of at-least-once delivery.  Worker crashes are not
    retried: the process is gone.
    """
    last_error = None
    for attempt in range(policy.max_attempts):
        if attempt:
            profiling.count("transport.retry")
            if on_retry is not None:
                on_retry()
            if clock is not None:
                clock.advance(policy.backoff(attempt - 1, rng))
        try:
            return channel.call(request)
        except (MessageDropped, ReplyLost) as error:
            last_error = error
    raise DeliveryFailed(
        f"request {request.request_id} failed after "
        f"{policy.max_attempts} attempts: {last_error}"
    ) from last_error


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class PSClient:
    """The worker-side stub: familiar PS methods over a channel.

    Exposes the same ``pull_dense`` / ``pull_embedding_rows`` /
    ``push_delta`` surface as :class:`~repro.distributed.ps.ParameterServer`
    (so the embedding cache and worker code are oblivious to the wire), but
    every call is a typed message that can fail and be retried.
    """

    def __init__(self, channel, worker_id, retry=None, rng=None, clock=None,
                 incarnation=0):
        self._channel = channel
        self.worker_id = worker_id
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = rng
        self._clock = clock
        self._incarnation = incarnation
        self._sequence = 0
        #: PS version observed at the last dense pull — the reference point
        #: (Θ of Eq. 3) this worker's next push is measured against.
        self.base_version = 0
        self.counters = {"calls": 0, "retried": 0, "stale_rejected": 0,
                         "deduped": 0, "heartbeats_lost": 0}

    def _next_request_id(self):
        self._sequence += 1
        return f"{self.worker_id}/{self._incarnation}/{self._sequence}"

    def _count_retry(self):
        self.counters["retried"] += 1

    def _call(self, request):
        self.counters["calls"] += 1
        return call_with_retry(
            self._channel, request, self.retry, rng=self._rng,
            clock=self._clock, on_retry=self._count_retry,
        )

    # -- PS-compatible surface ----------------------------------------
    def pull_dense(self):
        response = self._call(
            PullDenseRequest(self.worker_id, self._next_request_id())
        )
        self.base_version = response.version
        return response.payload

    def pull_embedding_rows(self, name, ids):
        response = self._call(
            PullRowsRequest(self.worker_id, self._next_request_id(), name, ids)
        )
        return response.payload

    def push_delta(self, dense_delta, embedding_deltas):
        """Push the outer-loop delta; returns the server's :class:`Response`.

        A rejected (stale) push is *not* an exception: the worker's delta
        is simply lost and it re-pulls fresh state next epoch, exactly like
        the production PS.  Callers inspect ``response.accepted``.
        """
        request = PushRequest(
            self.worker_id, self._next_request_id(), self.base_version,
            dense_delta, embedding_deltas,
        )
        response = self._call(request)
        if response.duplicate:
            self.counters["deduped"] += 1
        if not response.accepted:
            self.counters["stale_rejected"] += 1
            profiling.count("ps.push_stale")
        return response

    def heartbeat(self):
        """Send a liveness beacon; lost beats are survivable and swallowed."""
        tick = self._clock.now if self._clock is not None else 0.0
        request = HeartbeatRequest(self.worker_id, self._next_request_id(), tick)
        try:
            return self._call(request)
        except DeliveryFailed:
            self.counters["heartbeats_lost"] += 1
            return None
