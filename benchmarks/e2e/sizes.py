"""Workload table and input sizes of the end-to-end benchmark.

Every run drives all four *lanes* — offline fits, steady serving, serving
under publication churn, and the online train-publish-serve loop — in
interleaved units, because the driver's contract wants every end-to-end
metric from every run.  A workload decides which lane gets the long
measurement (``MAIN_SHARE`` of ``--seconds``); the other three run a
shorter reference pass (``REF_SHARE`` each).  Work is count-based: the
unit counts below depend only on the workload and ``--seconds``, so two
commits do identical work and the exact-count metrics repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WORKLOADS", "LANES", "Sizes", "FULL", "QUICK", "unit_counts"]

# workload name -> the lane it measures longest
WORKLOADS = {
    "train_offline": "train",
    "serve_steady": "steady",
    "serve_churn": "churn",
    "online_loop": "loop",
}
LANES = ("train", "steady", "churn", "loop")

MAIN_SHARE = 0.4
REF_SHARE = 0.2

# Seconds one unit of each lane took on the 2-vCPU host the benchmark was
# sized on, in that host's slow spells (it ran up to 1.6x faster in quiet
# ones).  They only turn ``--seconds`` into a unit count; a faster program
# or host finishes early, it is not given more work.
UNIT_SECONDS = {"train": 1.15, "steady": 0.35, "churn": 0.33, "loop": 0.60}

# The traced pass alternates traced and untraced units, and medians need a
# few samples, so no lane runs fewer units than this.
MIN_UNITS = {"train": 2, "steady": 2, "churn": 4, "loop": 4}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark of record, ``QUICK`` the
    seconds-long smoke test (schema and correctness checks only)."""

    setup_reps: int = 3

    # train lane: Session(mamdr, mlp) on taobao30_sim
    train_scale: float = 1.0
    train_epochs: int = 2

    # steady / churn lanes: one pool worker, frozen or republished snapshot
    serve_domains: int = 32
    serve_users: int = 4000
    serve_items: int = 1000
    candidates: int = 32              # items scored per request
    steady_unit_requests: int = 500
    churn_unit_requests: int = 400    # one publication per churn unit
    serve_train: dict = field(default_factory=lambda: dict(
        epochs=1, batch_size=64, inner_steps=1, dn_rounds=1,
        dr_steps=1, sample_k=1,
    ))
    parity_every: int = 29            # every n-th reply is checked bitwise
    probe_requests: int = 1500        # in-process layer probes (traced run)

    # loop lane: archive -> ingest -> update -> gate -> publish -> replay
    loop_domains: int = 16
    loop_users: int = 4000
    loop_items: int = 1000
    window_events: int = 8000
    bootstrap_windows: int = 2
    replay_events: int = 360          # first events of the window, replayed
    replay_qps: float = 1500.0        # open loop, Poisson arrivals
    slo_ms: float = 20.0
    # A generator whose median offer is later than this was the
    # bottleneck and measured its own backlog: the run is invalid, not
    # slow.  The median, not the issue's p99: one host stall of 5 ms delays
    # the next eight offers at once and is most windows' p99 in this
    # host's slow spells, while a generator that keeps up has a median lag
    # of 5-50 us.
    max_gen_lag_ms: float | None = 1.0
    max_batch: int = 32
    max_inflight: int = 2
    loop_train: dict = field(default_factory=lambda: dict(
        epochs=1, batch_size=128, inner_steps=2, dn_rounds=2,
        sample_k=2, dr_steps=1,
    ))
    replay_capacity: int = 8000
    holdout_capacity: int = 1000
    # GateConfig overrides.  Only domains with a few hundred held-out rows
    # vote: on the tail domains' few dozen rows an honest candidate fails
    # the calibration guard for one seed in ten, and the benchmark must
    # run the same publications for every seed.
    gate: dict = field(default_factory=lambda: dict(min_samples=200))
    regression_scale: float = 3.0     # noise of the injected bad candidate
    parity_samples: int = 32


FULL = Sizes()

QUICK = Sizes(
    setup_reps=1,
    train_scale=0.3, train_epochs=1,
    serve_domains=6, serve_users=400, serve_items=200,
    steady_unit_requests=120, churn_unit_requests=80,
    parity_every=7,
    probe_requests=100,
    loop_domains=4, loop_users=300, loop_items=160, window_events=960,
    replay_events=120, replay_qps=1000.0,
    loop_train=dict(epochs=1, batch_size=96, inner_steps=3, dn_rounds=2,
                    sample_k=2, dr_steps=2),
    replay_capacity=1600, holdout_capacity=200,
    # A few hundred events per window: keep the gate from rejecting honest
    # candidates on holdout noise, and assert nothing about timing.
    gate=dict(max_auc_drop=0.2, max_ctr_ratio_error=1.5),
    max_gen_lag_ms=None,
)


def unit_counts(workload, seconds, quick=False):
    """``{lane: units}`` for one run of ``workload`` lasting ``seconds``."""
    main = WORKLOADS[workload]
    counts = {}
    for lane in LANES:
        if quick:
            counts[lane] = MIN_UNITS[lane]
            continue
        share = MAIN_SHARE if lane == main else REF_SHARE
        counts[lane] = max(MIN_UNITS[lane],
                           round(share * seconds / UNIT_SECONDS[lane]))
    return counts
