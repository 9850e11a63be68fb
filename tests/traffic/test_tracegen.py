"""Traffic-trace generator: determinism, rate honesty, skew, adapters."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.online.stream import EventStream, StreamConfig
from repro.traffic import TraceConfig, generate_trace, trace_from_stream

pytestmark = pytest.mark.traffic


def make_config(**overrides):
    base = dict(
        name="t", n_domains=4, n_users=120, n_items=80,
        duration=0.5, mean_qps=3000.0, slot_seconds=0.01, seed=3,
    )
    base.update(overrides)
    return TraceConfig(**base)


def test_trace_is_a_pure_function_of_its_config():
    first = generate_trace(make_config())
    second = generate_trace(make_config())
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.users, second.users)
    assert np.array_equal(first.items, second.items)
    assert np.array_equal(first.domains, second.domains)


def trace_digest(trace):
    digest = hashlib.sha256()
    for column in (trace.times, trace.users, trace.items, trace.domains):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def serve_lane_config(n_domains, n_users, n_items, mean_qps):
    """The serve lane's trace shape (``benchmarks/e2e/serve_lane.py``)."""
    return TraceConfig(
        name="e2e_serve", n_domains=n_domains, n_users=n_users,
        n_items=n_items, duration=1.0, mean_qps=mean_qps,
        slot_seconds=0.05, seed=0,
    )


@pytest.mark.parametrize("config, length, expected", [
    # serve lane at the benchmark's default and smoke sizes
    (serve_lane_config(32, 4000, 1000, 40000.0), 39815,
     "da2836e030ef3ce078c2f230d44952726d7985114890de205305b9b9e98acde5"),
    (serve_lane_config(6, 400, 200, 10000.0), 9906,
     "25828c9ae93d12b8ab2f4c8a4ed9db525d49ee9a64388dd97cddc0e16dcdb784"),
    # the pool-parity trace (test_pool_parity.py)
    (TraceConfig(name="parity", n_domains=3, n_users=400, n_items=200,
                 duration=0.2, mean_qps=2000.0, slot_seconds=0.01, seed=11),
     424,
     "25879e5b5ff8fc4c2b5ea2c3b1e2e3054b81aaef57e0074c1114efc7c2359dbb"),
    (TraceConfig(), 2035,
     "ae82814391b1cc7ee586bbbb7160d5a7d3bc4d3b9a9eaba1509852bd7de78f7b"),
], ids=["serve-default", "serve-smoke", "pool-parity", "defaults"])
def test_trace_bytes_are_pinned(config, length, expected):
    """The traces the benchmark and the pool tests replay, byte for byte."""
    trace = generate_trace(config)
    assert len(trace) == length
    assert trace_digest(trace) == expected


def test_different_seeds_give_different_traffic():
    first = generate_trace(make_config(seed=3))
    second = generate_trace(make_config(seed=4))
    assert not np.array_equal(first.times, second.times)


def test_timestamps_sorted_and_inside_horizon():
    trace = generate_trace(make_config())
    assert np.all(np.diff(trace.times) >= 0)
    assert trace.times[0] >= 0.0
    assert trace.times[-1] <= trace.horizon
    assert trace.times.dtype == np.float64


def test_realized_rate_tracks_mean_qps():
    # Long enough that Poisson noise stays within a few percent.
    trace = generate_trace(make_config(duration=2.0, mean_qps=5000.0))
    assert trace.offered_qps == pytest.approx(5000.0, rel=0.1)


def test_domain_mix_is_zipf_skewed():
    trace = generate_trace(make_config(duration=2.0, domain_skew=1.2))
    counts = trace.per_domain_counts()
    ordered = [counts[d] for d in range(trace.n_domains)]
    assert ordered[0] > ordered[-1] * 2
    assert ordered == sorted(ordered, reverse=True)


def test_head_truncates_consistently():
    trace = generate_trace(make_config())
    head = trace.head(32)
    assert len(head) == 32
    assert np.array_equal(head.users, trace.users[:32])
    assert np.array_equal(head.times, trace.times[:32])


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(mean_qps=0.0)
    with pytest.raises(ValueError):
        make_config(slot_seconds=0.0)


def test_trace_from_stream_preserves_event_content():
    stream = EventStream(StreamConfig(
        n_domains=3, n_users=60, n_items=40, n_windows=3,
        window_events=60, seed=5,
    ))
    trace = trace_from_stream(stream, mean_qps=2000.0, seed=9)
    expected_users = np.concatenate(
        [stream.window(i).users for i in range(3)]
    )
    expected_domains = np.concatenate(
        [stream.window(i).domains for i in range(3)]
    )
    assert np.array_equal(trace.users, expected_users)
    assert np.array_equal(trace.domains, expected_domains)
    assert np.all(np.diff(trace.times) >= 0)
    assert trace.offered_qps == pytest.approx(2000.0, rel=0.35)
    # Seeded arrival assignment is replayable.
    again = trace_from_stream(stream, mean_qps=2000.0, seed=9)
    assert np.array_equal(trace.times, again.times)


def test_trace_from_stream_window_subset():
    stream = EventStream(StreamConfig(
        n_domains=3, n_users=60, n_items=40, n_windows=4,
        window_events=60, seed=5,
    ))
    trace = trace_from_stream(stream, mean_qps=1000.0, windows=(1, 3))
    assert len(trace) == 2 * 60
    assert np.array_equal(trace.users[:60], stream.window(1).users)


def test_trace_from_archive_matches_live_stream(tmp_path):
    """A columnar StreamArchive is a drop-in stream source: the trace
    built from the recorded file is byte-identical to the live one."""
    from repro.online.stream import StreamArchive, write_stream

    stream = EventStream(StreamConfig(
        n_domains=3, n_users=60, n_items=40, n_windows=3,
        window_events=60, seed=5,
    ))
    path = tmp_path / "stream.col"
    write_stream(path, stream)
    archive = StreamArchive.open(path)

    live = trace_from_stream(stream, mean_qps=2000.0, seed=9)
    replayed = trace_from_stream(archive, mean_qps=2000.0, seed=9)
    assert np.array_equal(live.times, replayed.times)
    assert np.array_equal(live.users, replayed.users)
    assert np.array_equal(live.items, replayed.items)
    assert np.array_equal(live.domains, replayed.domains)
    archive.close()
