"""Columnar data plane: binary format, backends, and view-op parity.

Three layers of guarantees:

* **format** — checksummed preamble/header round trips; corruption,
  truncation, bad magic and future versions are rejected at the right
  time (open for structure, ``verify_checksums`` for payload bytes);
* **backend parity** — for every registry preset, the dataset rebuilt
  from a memory-mapped file is element-equal to the legacy in-RAM one
  (the bitwise-parity acceptance gate of the columnar subsystem);
* **view semantics** — every table operation (subset, shuffle,
  temporal_split, concatenate, minibatch iteration) applied to a
  memory-mapped view produces values element-equal to the legacy path,
  property-tested over random tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import iter_minibatches, iter_store_batches
from repro.data.benchmarks import BENCHMARK_BUILDERS
from repro.data.columnar import (
    DATASET_COLUMNS,
    ColumnarStore,
    ColumnarWriter,
    Extent,
    RamInteractionStore,
    SerializationError,
    dataset_from_store,
    open_dataset,
    read_arrays,
    write_arrays,
    write_dataset,
)
from repro.data.schema import InteractionTable
from repro.data.splits import temporal_split
from repro.utils.seeding import spawn_rng

from tests.conftest import make_tiny_dataset

pytestmark = pytest.mark.data


def tables_equal(a, b):
    """Element equality regardless of storage dtype (uint32 vs int64)."""
    return (
        np.array_equal(a.users, b.users)
        and np.array_equal(a.items, b.items)
        and np.array_equal(a.labels, b.labels)
    )


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_dataset("trainable")


@pytest.fixture()
def mapped(tiny, tmp_path):
    """The tiny dataset, round-tripped through a columnar file."""
    path = tmp_path / "tiny.col"
    write_dataset(path, tiny)
    dataset = open_dataset(path)
    yield dataset
    try:
        dataset.close()
    except BufferError:
        pass


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------
class TestFormat:
    def test_round_trip_and_o1_open(self, tiny, tmp_path):
        path = tmp_path / "ds.col"
        write_dataset(path, tiny)
        dataset = open_dataset(path, verify=True)
        assert dataset.backend == "mmap"
        assert dataset.name == tiny.name
        assert dataset.n_users == tiny.n_users
        assert dataset.n_items == tiny.n_items
        assert len(dataset) == len(tiny)
        dataset.close()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_bytes(b"NOTACOL!" + b"\x00" * 100)
        with pytest.raises(SerializationError, match="bad magic"):
            ColumnarStore.open(path)

    def test_rejects_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.col"
        path.write_bytes(b"RP")
        with pytest.raises(SerializationError, match="smaller than"):
            ColumnarStore.open(path)

    def test_rejects_truncation(self, tiny, tmp_path):
        path = tmp_path / "trunc.col"
        write_dataset(path, tiny)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(SerializationError, match="truncated"):
            ColumnarStore.open(path)

    def test_rejects_corrupted_header(self, tiny, tmp_path):
        path = tmp_path / "hdr.col"
        write_dataset(path, tiny)
        data = bytearray(path.read_bytes())
        data[-8] ^= 0xFF          # inside the JSON header at the tail
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="header failed"):
            ColumnarStore.open(path)

    def test_detects_payload_corruption_on_verify(self, tiny, tmp_path):
        path = tmp_path / "bitrot.col"
        write_dataset(path, tiny)
        data = bytearray(path.read_bytes())
        data[200] ^= 0x01         # one payload bit
        path.write_bytes(bytes(data))
        # Structure is intact, so the O(1) open succeeds ...
        store = ColumnarStore.open(path)
        # ... and the streamed audit pins the corruption.
        with pytest.raises(SerializationError, match="chunk 0 failed"):
            store.verify_checksums()
        store.close()

    def test_rejects_future_version(self, tiny, tmp_path, monkeypatch):
        import repro.data.columnar as columnar

        path = tmp_path / "future.col"
        monkeypatch.setattr(columnar, "COLUMNAR_FORMAT_VERSION", 99)
        write_dataset(path, tiny)
        monkeypatch.undo()
        with pytest.raises(SerializationError, match="version 99"):
            ColumnarStore.open(path)

    def test_close_refuses_under_live_views(self, mapped):
        view = mapped.store.column("users")
        with pytest.raises(BufferError):
            mapped.close()
        assert len(view) == mapped.store.rows  # still valid, not unmapped

    def test_release_keeps_views_valid(self, mapped):
        before = np.asarray(mapped.store.column("users")).copy()
        mapped.release()
        assert np.array_equal(mapped.store.column("users"), before)


class TestWriter:
    def test_append_requires_extent(self, tmp_path):
        with ColumnarWriter(tmp_path / "w.col", DATASET_COLUMNS) as writer:
            with pytest.raises(ValueError, match="new_extent"):
                writer.append(users=[1], items=[2], labels=[1.0])
            writer.new_extent(domain="D", index=0, split="train")
            writer.append(users=[1], items=[2], labels=[1.0])

    def test_rejects_ragged_append(self, tmp_path):
        with ColumnarWriter(tmp_path / "w.col", DATASET_COLUMNS) as writer:
            writer.new_extent(index=0, split="train")
            with pytest.raises(ValueError, match="ragged"):
                writer.append(users=[1, 2], items=[3], labels=[1.0])
            writer.append(users=[1], items=[3], labels=[1.0])

    def test_rejects_wrong_columns(self, tmp_path):
        with ColumnarWriter(tmp_path / "w.col", DATASET_COLUMNS) as writer:
            writer.new_extent(index=0, split="train")
            with pytest.raises(ValueError, match="exactly columns"):
                writer.append(users=[1], items=[2])
            writer.append(users=[1], items=[2], labels=[0.0])

    def test_rejects_negative_and_oversized_ids(self, tmp_path):
        with ColumnarWriter(tmp_path / "w.col", DATASET_COLUMNS) as writer:
            writer.new_extent(index=0, split="train")
            with pytest.raises(ValueError, match="negative"):
                writer.append(users=[-1], items=[0], labels=[0.0])
            with pytest.raises(ValueError, match="uint32"):
                writer.append(users=[1 << 33], items=[0], labels=[0.0])
            writer.append(users=[0], items=[0], labels=[0.0])

    def test_abort_on_error_leaves_no_files(self, tmp_path):
        path = tmp_path / "broken.col"

        def write_and_fail():
            with pytest.raises(RuntimeError, match="boom"):
                with ColumnarWriter(path, DATASET_COLUMNS) as writer:
                    writer.new_extent(index=0, split="train")
                    writer.append(users=[1], items=[2], labels=[1.0])
                    raise RuntimeError("boom")

        write_and_fail()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # spill dir cleaned up

        # An aborted writer never touches a file already at ``path``.
        write_arrays(path, {"w": np.arange(3.0)}, kind="keep")
        before = path.read_bytes()
        write_and_fail()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no spill, no .tmp

    def test_failed_finalize_keeps_previous_file(self, tmp_path):
        path = tmp_path / "w.col"
        write_arrays(path, {"w": np.arange(3.0)}, kind="keep")
        before = path.read_bytes()
        writer = ColumnarWriter(path, DATASET_COLUMNS, meta={"x": object()})
        writer.new_extent(index=0, split="train")
        writer.append(users=[1], items=[2], labels=[1.0])
        with pytest.raises(TypeError):   # the header is not JSON-able
            writer.finalize()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_finalize_twice_rejected(self, tmp_path):
        writer = ColumnarWriter(tmp_path / "w.col", DATASET_COLUMNS)
        writer.new_extent(index=0, split="train")
        writer.append(users=[1], items=[2], labels=[1.0])
        writer.finalize()
        with pytest.raises(ValueError, match="finalized"):
            writer.finalize()


class TestArrays:
    """``write_arrays`` / ``read_arrays``: the same container, any shape."""

    def test_round_trip_any_shape_and_dtype(self, tmp_path):
        arrays = {
            "matrix": np.arange(12.0).reshape(3, 4),
            "scalar": np.asarray(7),
            "empty": np.zeros((0, 5), dtype=np.float32),
            "flags": np.array([True, False, True]),
            "strided": np.arange(10)[::3],
        }
        path = tmp_path / "a.rp"
        write_arrays(path, arrays, kind="test", meta={"epoch": 3})
        loaded, meta = read_arrays(path, kind="test")
        assert meta == {"epoch": 3}
        assert list(loaded) == list(arrays)
        for name, value in arrays.items():
            assert loaded[name].dtype == value.dtype
            assert loaded[name].shape == value.shape
            np.testing.assert_array_equal(loaded[name], value)
            assert loaded[name].flags.writeable

    def test_sections_without_shape_read_as_columns(self, tiny, tmp_path):
        """Files written before sections carried a shape still open."""
        path = tmp_path / "ds.col"
        write_dataset(path, tiny)
        columns, _ = read_arrays(path, kind="dataset")
        ram = RamInteractionStore.pack_dataset(tiny)
        for name in ("users", "items", "labels"):
            assert columns[name].ndim == 1
            np.testing.assert_array_equal(columns[name], ram.column(name))


class TestStoreProtocol:
    def test_extents_must_tile_in_order(self):
        columns = {"users": np.zeros(4, dtype=np.uint32)}
        with pytest.raises(ValueError, match="tile"):
            RamInteractionStore(columns, [Extent(1, 4, {})])
        with pytest.raises(ValueError, match="covers?|cover"):
            RamInteractionStore(columns, [Extent(0, 3, {})])
        store = RamInteractionStore(
            columns, [Extent(0, 2, {}), Extent(2, 4, {})]
        )
        assert store.rows == 4

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="ragged"):
            RamInteractionStore(
                {"users": np.zeros(3, dtype=np.uint32),
                 "items": np.zeros(2, dtype=np.uint32)},
                [],
            )

    def test_ram_and_mmap_backends_agree(self, tiny, mapped):
        ram = RamInteractionStore.pack_dataset(tiny)
        assert ram.backend == "ram"
        assert mapped.store.backend == "mmap"
        assert ram.rows == mapped.store.rows
        for name in ("users", "items", "labels"):
            assert np.array_equal(ram.column(name),
                                  mapped.store.column(name))
        for left, right in zip(ram.extents, mapped.store.extents):
            assert (left.start, left.stop, left.meta) == \
                (right.start, right.stop, right.meta)

    def test_find_extents(self, mapped):
        trains = mapped.store.find_extents(split="train")
        assert len(trains) == len(mapped)
        one = mapped.store.find_extents(split="val", index=0)
        assert len(one) == 1
        assert one[0].meta["domain"] == mapped.domain(0).name

    def test_dataset_from_store_rejects_missing_split(self, tiny):
        ram = RamInteractionStore.pack_dataset(tiny, splits=("train", "val"))
        with pytest.raises(SerializationError, match="missing splits"):
            dataset_from_store(ram)

    def test_zero_copy_views(self, mapped):
        table = mapped.domain(0).train
        assert table.users.base is not None  # a view, not a copy
        batch = next(iter_store_batches(mapped.store, 8))
        assert batch.users.base is not None


# ----------------------------------------------------------------------
# Registry-preset bitwise parity (the acceptance gate)
# ----------------------------------------------------------------------
def _build_preset(name):
    builder = BENCHMARK_BUILDERS[name]
    if name == "taobao_sim":
        return builder(6, scale=0.3)
    if name == "taobao_online_sim":
        return builder(n_domains=8, total_samples=1200)
    return builder(scale=0.3)


@pytest.mark.parametrize("preset", sorted(BENCHMARK_BUILDERS))
def test_registry_preset_columnar_parity(preset, tmp_path):
    """columnar == legacy, element for element, for every preset."""
    legacy = _build_preset(preset)
    path = tmp_path / f"{preset}.col"
    write_dataset(path, legacy)
    mapped = open_dataset(path, verify=True)
    assert mapped.n_domains == legacy.n_domains
    for old, new in zip(legacy, mapped):
        assert old.name == new.name and old.index == new.index
        for split in ("train", "val", "test"):
            assert tables_equal(getattr(old, split), getattr(new, split)), \
                f"{preset}: {old.name}/{split} diverged"
    del old, new  # drop the live views so the mmap can unmap
    mapped.close()


# ----------------------------------------------------------------------
# View-op equivalence properties
# ----------------------------------------------------------------------
@st.composite
def table_data(draw):
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**20))
    rng = spawn_rng(seed, "columnar-prop")
    users = rng.integers(0, 500, size=n)
    items = rng.integers(0, 300, size=n)
    labels = (rng.random(n) < 0.4).astype(np.float64)
    return users, items, labels, seed


def _mapped_table(tmp_path, users, items, labels, tag):
    path = tmp_path / f"prop_{tag}.col"
    with ColumnarWriter(path, DATASET_COLUMNS) as writer:
        writer.new_extent(index=0, split="train")
        writer.append(users=users, items=items, labels=labels)
    store = ColumnarStore.open(path)
    return store, store.extent_table(0)


class TestViewOpEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=table_data())
    def test_subset_shuffle_concat_minibatch(self, data, tmp_path_factory):
        users, items, labels, seed = data
        tmp_path = tmp_path_factory.mktemp("prop")
        legacy = InteractionTable(users.copy(), items.copy(), labels.copy())
        store, view = _mapped_table(tmp_path, users, items, labels, seed)

        rng = spawn_rng(seed, "subset")
        indices = rng.integers(0, len(legacy), size=len(legacy))
        assert tables_equal(legacy.subset(indices), view.subset(indices))

        assert tables_equal(
            legacy.shuffled(spawn_rng(seed, "shuffle")),
            view.shuffled(spawn_rng(seed, "shuffle")),
        )

        assert tables_equal(
            InteractionTable.concatenate([legacy, legacy]),
            InteractionTable.concatenate([view, view]),
        )

        for old, new in zip(
            iter_minibatches(legacy, 0, 7,
                             rng=spawn_rng(seed, "batches")),
            iter_minibatches(view, 0, 7,
                             rng=spawn_rng(seed, "batches")),
        ):
            assert np.array_equal(old.users, new.users)
            assert np.array_equal(old.labels, new.labels)

        del view
        store.close()

    @settings(max_examples=25, deadline=None)
    @given(data=table_data())
    def test_temporal_split(self, data, tmp_path_factory):
        users, items, labels, seed = data
        tmp_path = tmp_path_factory.mktemp("tsplit")
        legacy = InteractionTable(users.copy(), items.copy(), labels.copy())
        store, view = _mapped_table(tmp_path, users, items, labels, seed)
        times = spawn_rng(seed, "times").integers(0, 50, size=len(legacy))

        for stamps in (times, np.sort(times)):  # general + sorted fast path
            old_train, old_hold, old_cut = temporal_split(legacy, stamps)
            new_train, new_hold, new_cut = temporal_split(view, stamps)
            assert old_cut == new_cut
            assert tables_equal(old_train, new_train)
            assert tables_equal(old_hold, new_hold)

        del view, new_train, new_hold  # sorted path returns live slices
        store.close()


def test_sorted_temporal_split_is_zero_copy(mapped):
    """On pre-sorted timestamps the split returns slice views."""
    table = mapped.domain(0).train
    times = np.arange(len(table))
    train, holdout, _ = temporal_split(table, times)
    assert train.users.base is not None
    assert holdout.users.base is not None
    assert len(train) + len(holdout) == len(table)


def test_iter_store_batches_matches_tables(mapped, tiny):
    """Extent-walking epoch iteration == per-domain unshuffled batches."""
    store_batches = list(iter_store_batches(mapped.store, 16, split="train"))
    legacy_batches = [
        batch for domain in tiny
        for batch in iter_minibatches(domain.train, domain.index, 16)
    ]
    assert len(store_batches) == len(legacy_batches)
    for new, old in zip(store_batches, legacy_batches):
        assert new.domain == old.domain
        assert np.array_equal(new.users, old.users)
        assert np.array_equal(new.items, old.items)
        assert np.array_equal(new.labels, old.labels)


def test_num_positive_exact_on_float32_columns():
    """Label counting must accumulate in float64: 2^24 + k ones summed in
    float32 stalls at 2^24 and would silently undercount positives."""
    n = (1 << 24) + 17
    labels = np.ones(n, dtype=np.float32)
    table = InteractionTable(
        np.zeros(n, dtype=np.uint32), np.zeros(n, dtype=np.uint32), labels
    )
    assert table.num_positive == n
