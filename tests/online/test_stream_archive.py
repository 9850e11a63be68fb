"""Stream archives: columnar recording and replay of micro-epochs.

An archive must be a faithful stand-in for the live :class:`EventStream`
— same config, same windows bit for bit — so every stream consumer
(the incremental trainer's ingest loop, the traffic tracegen adapter)
replays recorded data without modification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.columnar import SerializationError, write_dataset
from repro.online import IncrementalTrainer
from repro.online.stream import EventStream, StreamArchive, write_stream

from tests.conftest import make_tiny_dataset
from tests.online.conftest import make_stream_model, small_stream_config

pytestmark = pytest.mark.online


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    stream = EventStream(small_stream_config())
    path = tmp_path_factory.mktemp("archive") / "stream.col"
    write_stream(path, stream)
    return path


def test_archive_round_trips_every_window(archive_path):
    stream = EventStream(small_stream_config())
    archive = StreamArchive.open(archive_path, verify=True)

    assert archive.config == stream.config  # StreamConfig is all primitives
    assert archive.window_indices == list(range(stream.config.n_windows))

    for live, replayed in zip(stream.windows(), archive.windows()):
        assert replayed.index == live.index
        assert replayed.start_time == live.start_time
        assert replayed.watermark == live.watermark
        assert replayed.drift == pytest.approx(live.drift)
        np.testing.assert_array_equal(replayed.users, live.users)
        np.testing.assert_array_equal(replayed.items, live.items)
        np.testing.assert_array_equal(replayed.labels, live.labels)
        np.testing.assert_array_equal(replayed.domains, live.domains)
        np.testing.assert_array_equal(replayed.times, live.times)
        assert replayed.times.dtype == np.int64  # exact event clock

    del live, replayed
    archive.close()


def test_windows_are_zero_copy_views(archive_path):
    archive = StreamArchive.open(archive_path)
    window = archive.window(2)
    assert window.users.base is not None
    assert window.times.base is not None
    archive.release()                      # views survive a page release
    assert window.watermark == window.times[-1]
    del window
    archive.close()


def test_partial_archive_and_missing_window(tmp_path):
    stream = EventStream(small_stream_config())
    path = tmp_path / "partial.col"
    write_stream(path, stream, windows=(1, 3))

    archive = StreamArchive.open(path)
    assert archive.window_indices == [1, 3]
    np.testing.assert_array_equal(
        archive.window(3).labels, stream.window(3).labels
    )
    with pytest.raises(IndexError, match=r"available: \[1, 3\]"):
        archive.window(0)
    archive.close()


def test_archive_rejects_non_stream_file(tmp_path):
    path = tmp_path / "dataset.col"
    write_dataset(path, make_tiny_dataset("trainable"))
    with pytest.raises(SerializationError, match="not a stream archive"):
        StreamArchive.open(path)


def test_ingest_archive_matches_live_ingest(archive_path, skeleton,
                                            online_config):
    """Replaying the archive leaves the trainer in the same state —
    replay buffers, holdouts, watermarks — as ingesting the live
    stream window by window."""
    stream = EventStream(small_stream_config())
    n_domains = stream.config.n_domains

    live = IncrementalTrainer(make_stream_model(skeleton), n_domains,
                              online_config)
    live_counts = {
        window.index: live.ingest(window) for window in stream.windows()
    }

    archive = StreamArchive.open(archive_path)
    replayed = IncrementalTrainer(make_stream_model(skeleton), n_domains,
                                  online_config)
    replay_counts = replayed.ingest_archive(archive, release_every=2)

    assert replay_counts == live_counts
    assert replayed.ingested_events == live.ingested_events
    assert replayed.last_watermark == live.last_watermark
    assert replayed.replay.domains() == live.replay.domains()
    for domain in live.replay.domains():
        a = live.replay.table(domain)
        b = replayed.replay.table(domain)
        np.testing.assert_array_equal(a.users, b.users)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.labels, b.labels)
    assert replayed.holdout_watermarks == live.holdout_watermarks
    assert set(replayed.holdouts) == set(live.holdouts)
    for domain, table in live.holdouts.items():
        np.testing.assert_array_equal(
            table.labels, replayed.holdouts[domain].labels
        )

    # The trainer's state owns its memory: the archive closes cleanly
    # (no BufferError) and the buffers stay readable afterwards.
    archive.close()
    assert int(replayed.replay.table(0).users.sum()) >= 0
