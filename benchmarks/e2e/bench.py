"""One run of one workload: set up, interleave the lanes' units, check."""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
from multiprocessing import resource_tracker
from pathlib import Path

from loop_lane import LoopLane
from serve_lane import ServeLane
from sizes import FULL, QUICK, WORKLOADS, unit_counts
from spans import Tracer, clock, median, peak_rss_mb, summary
from train_lane import TrainLane

__all__ = ["run_workload"]


def _interleave(units, counts, tracer, trace):
    """Run every lane's units, always advancing the lane that is furthest
    behind, so each lane samples the whole run's host conditions instead
    of one contiguous slice (slow drifts of a shared host were the largest
    source of spread in sizing).  With ``trace`` on, odd units of a lane
    are traced and even ones are not: the pair gives the tracing overhead
    from one run.  Returns ``{lane: [(traced, seconds), ...]}``.
    """
    done = dict.fromkeys(counts, 0)
    seconds = {lane: [] for lane in counts}
    while True:
        behind = [lane for lane in counts if done[lane] < counts[lane]]
        if not behind:
            return seconds
        lane = min(behind, key=lambda name: done[name] / counts[name])
        traced = trace and done[lane] % 2 == 1
        tracer.enabled = traced
        start = clock()
        units[lane](done[lane], traced)
        seconds[lane].append((traced, clock() - start))
        tracer.enabled = False
        done[lane] += 1


def _stop_processes():
    """Leave no process behind: the pools' workers have been joined by the
    lanes' teardown (any that a failed teardown left are ended here), and
    what remains is the ``multiprocessing`` resource tracker that
    ``PredictorPool.start`` launches for the shared-memory arenas.  It is a
    process of its own which Python 3.11 does not wait for at exit: it ends
    once it notices its parent is gone, so it outlives the run by a moment
    as an orphan.  Every arena is unlinked by now, so it has nothing left
    to clean up; ``_stop`` closes its pipe and waits for it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def run_workload(workload, seed, seconds, trace, out_dir, quick=False):
    """Measure one workload; returns the full result record (a dict)."""
    sizes = QUICK if quick else FULL
    counts = unit_counts(workload, seconds, quick)
    tracer = Tracer()
    out_dir = Path(out_dir)
    scratch = out_dir / f"scratch-{os.getpid()}"
    lanes = ()
    setup_seconds = []
    try:
        # Set up several times and report the median: one set-up is a
        # single sample of mostly page-fault-bound work.
        for rep in range(sizes.setup_reps):
            for lane in lanes:
                lane.teardown()
            lanes = (
                TrainLane(sizes, seed, tracer),
                ServeLane(sizes, seed, tracer, counts),
                LoopLane(sizes, seed, tracer, counts, scratch),
            )
            start = clock()
            for lane in lanes:
                lane.setup()
            setup_seconds.append(clock() - start)
        train, serve, loop = lanes
        serve.prepare_inputs()
        loop.prepare_inputs()
        serve.warm_up()     # the loop's bootstrap already warmed its layers
        # The harness's own inputs (tens of thousands of request tuples)
        # are not the program's garbage: keep them out of its collector.
        gc.collect()
        gc.freeze()

        unit_seconds = _interleave(
            {"train": train.unit, "steady": serve.steady_unit,
             "churn": serve.churn_unit, "loop": loop.unit},
            counts, tracer, trace,
        )
        measured = sum(s for lane in unit_seconds.values() for _, s in lane)

        checks = {}
        checks.update(train.checks(trace))
        checks.update(serve.checks())
        checks.update(loop.checks())
        if trace:
            metrics = {}
            for lane in lanes:
                metrics.update(lane.per_layer())
            main = unit_seconds[WORKLOADS[workload]]
            plain = median([s for traced, s in main if not traced])
            metrics["bench.trace_overhead_frac"] = (
                median([s for traced, s in main if traced]) / plain - 1.0
            )
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"trace-{workload}.json")
            samples = {}
        else:
            metrics = {
                "setup_s": median(setup_seconds),
                "peak_rss_mb": peak_rss_mb(
                    [os.getpid(), *serve.worker_pids(), *loop.worker_pids()]
                ),
            }
            for lane in lanes:
                metrics.update(lane.end_to_end())
            samples = {"setup_s": setup_seconds}
            for lane in lanes:
                samples.update(lane.samples())
        return {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "quick": quick,
            "units": counts,
            "measured_s": measured,
            "correct": all(checks.values()),
            "checks": checks,
            "attempted": train.attempted + serve.attempted + loop.attempted,
            "failed": train.failed + serve.failed + loop.failed,
            "operations": {
                "fits": [train.attempted, train.failed],
                "closed_loop_requests": [serve.attempted, serve.failed],
                "open_loop_requests": [loop.attempted, loop.failed],
            },
            "metrics": metrics,
            "samples": {name: summary(values)
                        for name, values in samples.items()},
        }
    finally:
        try:
            for lane in lanes:
                lane.teardown()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            _stop_processes()
