"""Memory-mapped, domain-partitioned columnar interaction store.

The paper's headline deployment trains on 4.9e8 online samples; a dataset
that size cannot live as per-domain Python-object arrays in RAM.  This
module is the data plane that holds it instead: a **struct-of-arrays**
store — contiguous ``uint32`` user/item columns and ``float32``
label/timestamp columns — partitioned into *extents* (one per
``(domain, split)`` for offline datasets, one per micro-epoch for stream
archives, see :mod:`repro.online.stream`), persisted in a checksummed
binary format and opened via one read-only ``mmap``:

* **O(1) open, constant RSS** — :meth:`ColumnarStore.open` reads a
  64-byte preamble plus a JSON header and maps the payload; no row is
  touched until a consumer slices it, and :meth:`ColumnarStore.release`
  (``madvise(MADV_DONTNEED)``) hands resident pages back mid-epoch so a
  full pass over a dataset much larger than RAM runs at a flat memory
  footprint.
* **Zero-copy views** — every extent is a contiguous column range, so a
  domain's split table, a stream window, and an unshuffled minibatch are
  all ``ndarray`` slices of the mapping (no gather, no copy).  Engine
  code upconverts on contact: :class:`~repro.nn.tensor.Tensor` coerces
  float32 labels to float64 (0/1 values are exact in both), and uint32
  ids index embedding tables directly.
* **Integrity** — the preamble pins the header's SHA-256, the header
  pins per-chunk digests of the payload, and the declared file size
  catches truncation at open time without reading a single payload
  byte.  :meth:`ColumnarStore.verify_checksums` streams the payload when
  a full audit is wanted.
* **One container** — the same format persists named arrays of any
  shape (:func:`write_arrays` / :func:`read_arrays`): serving snapshots
  and cluster checkpoints.  Every file is written to ``<path>.tmp``,
  fsync'd and renamed over ``path``, so a writer killed at any point
  leaves the previous file intact.

Storage-vs-semantics is split exactly like PR 9's ``DomainParamStore``:
:class:`InteractionStore` is the protocol, :class:`RamInteractionStore`
(packed in-memory columns) and :class:`ColumnarStore` (memory-mapped
file) are the backends, and :func:`dataset_from_store` rebuilds the
ordinary :class:`~repro.data.schema.MultiDomainDataset` /
:class:`~repro.data.schema.Domain` / ``InteractionTable`` surface on top
— every existing split/sampling/batching consumer runs unchanged on
either backend, and the parity suite pins columnar == legacy bitwise for
every registry preset.

The writer is **out-of-core**: rows are appended in chunks, spilled to
per-column temp files, and streamed into the final column-major payload
at :meth:`ColumnarWriter.finalize` — peak RAM is one append batch, never
the dataset.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .schema import Domain, InteractionTable, MultiDomainDataset

__all__ = [
    "SerializationError",
    "COLUMNAR_FORMAT_VERSION",
    "USER_DTYPE",
    "ITEM_DTYPE",
    "LABEL_DTYPE",
    "TIME_DTYPE",
    "CLOCK_DTYPE",
    "DOMAIN_DTYPE",
    "DATASET_COLUMNS",
    "STREAM_COLUMNS",
    "Extent",
    "InteractionStore",
    "RamInteractionStore",
    "ColumnarStore",
    "ColumnarWriter",
    "write_arrays",
    "read_arrays",
    "write_dataset",
    "open_dataset",
    "dataset_from_store",
]

#: current on-disk format; bumped when the layout changes.
COLUMNAR_FORMAT_VERSION = 1

_MAGIC = b"RPROCOL1"
_PREAMBLE_BYTES = 64            # magic(8) + off(8) + len(8) + sha256(32) + pad
_PAYLOAD_ALIGN = 64             # column sections start 64-byte aligned
_DEFAULT_CHECKSUM_CHUNK = 64 * 1024 * 1024

# The storage schema.  These are the single sanctioned declaration sites
# for the reduced-precision storage dtypes — everything else references
# the constants, so the dtype-drift lint scope over repro/data keeps
# ad-hoc downcasts out of computational code.  uint32 ids cover the
# paper's entity universes (and 69k domains) four times over at half the
# footprint of int64; float32 labels hold {0, 1} exactly.
USER_DTYPE = np.dtype(np.uint32)
ITEM_DTYPE = np.dtype(np.uint32)
LABEL_DTYPE = np.dtype(np.float32)
TIME_DTYPE = np.dtype(np.float32)
#: exact event clocks for stream archives — window watermarks are integer
#: event indices that must survive 1e8-scale streams bit-exactly, which
#: float32's 24-bit mantissa cannot guarantee past ~1.6e7 events.
CLOCK_DTYPE = np.dtype(np.int64)
DOMAIN_DTYPE = np.dtype(np.uint32)

#: column schema of an offline dataset file (one extent per domain+split).
DATASET_COLUMNS = (("users", USER_DTYPE), ("items", ITEM_DTYPE),
                   ("labels", LABEL_DTYPE))
#: column schema of a stream archive (one extent per micro-epoch).
STREAM_COLUMNS = (("users", USER_DTYPE), ("items", ITEM_DTYPE),
                  ("labels", LABEL_DTYPE), ("domains", DOMAIN_DTYPE),
                  ("times", CLOCK_DTYPE))


class SerializationError(ValueError):
    """A persisted file is corrupt, tampered or incompatible."""


def _align(offset, alignment=_PAYLOAD_ALIGN):
    return (offset + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class Extent:
    """One contiguous row range of the store plus its partition metadata.

    ``meta`` identifies the partition: ``{"domain": name, "index": i,
    "split": "train"}`` for datasets, ``{"index": i, "watermark": ...}``
    for stream archives.  Extents never overlap and cover the store in
    order.
    """

    start: int
    stop: int
    meta: dict

    def __len__(self):
        return self.stop - self.start


class InteractionStore:
    """Backend protocol for columnar interaction storage.

    Mirrors the ``DomainParamStore`` split (PR 9): consumers see columns,
    extents and zero-copy range views; whether the bytes live in RAM or
    in a memory-mapped file is the backend's business.  Subclasses
    populate :attr:`columns` (``{name: full-length ndarray}``) and
    :attr:`extents`, and may override :meth:`release` / :meth:`close`.
    """

    backend = "ram"

    def __init__(self, columns, extents, *, name="columnar", kind="dataset",
                 n_users=None, n_items=None, meta=None):
        self.columns = OrderedDict(columns)
        self.extents = list(extents)
        self.name = name
        self.kind = kind
        self.n_users = n_users
        self.n_items = n_items
        self.meta = dict(meta or {})
        lengths = {len(col) for col in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.rows = lengths.pop() if lengths else 0
        previous = 0
        for extent in self.extents:
            if extent.start != previous or extent.stop < extent.start:
                raise ValueError(
                    f"extents must tile the store in order; got "
                    f"[{extent.start}, {extent.stop}) after row {previous}"
                )
            previous = extent.stop
        if self.extents and previous != self.rows:
            raise ValueError(
                f"extents cover {previous} rows but the store has {self.rows}"
            )

    # -- views ----------------------------------------------------------
    def column(self, name, start=0, stop=None):
        """Zero-copy view of one column range."""
        return self.columns[name][start:stop if stop is not None else self.rows]

    def table(self, start, stop):
        """Zero-copy :class:`InteractionTable` over ``[start, stop)``."""
        return InteractionTable(
            self.columns["users"][start:stop],
            self.columns["items"][start:stop],
            self.columns["labels"][start:stop],
        )

    def extent_table(self, index):
        extent = self.extents[index]
        return self.table(extent.start, extent.stop)

    def find_extents(self, **filters):
        """Extents whose meta matches every ``key=value`` filter."""
        return [
            extent for extent in self.extents
            if all(extent.meta.get(key) == value
                   for key, value in filters.items())
        ]

    @property
    def nbytes(self):
        return sum(col.nbytes for col in self.columns.values())

    # -- lifecycle ------------------------------------------------------
    def release(self):
        """Drop resident pages (no-op for RAM-backed stores)."""

    def close(self):
        """Release OS resources (no-op for RAM-backed stores)."""


class RamInteractionStore(InteractionStore):
    """Columns packed in RAM — the legacy layout, behind the protocol.

    Used by the writer's tests, by the parity suite and as the packing
    step of :func:`write_dataset`: :meth:`pack_dataset` concatenates a
    legacy dataset's per-domain tables into contiguous storage-dtype
    columns with one extent per ``(domain, split)``.
    """

    backend = "ram"

    @classmethod
    def pack_dataset(cls, dataset, splits=("train", "val", "test")):
        parts = {name: [] for name, _ in DATASET_COLUMNS}
        extents = []
        row = 0
        for domain in dataset:
            for split in splits:
                table = getattr(domain, split)
                _check_ids(table.users, dataset.n_users, "users")
                _check_ids(table.items, dataset.n_items, "items")
                parts["users"].append(table.users)
                parts["items"].append(table.items)
                parts["labels"].append(table.labels)
                extents.append(Extent(row, row + len(table), {
                    "domain": domain.name, "index": domain.index,
                    "split": split,
                }))
                row += len(table)
        dtypes = dict(DATASET_COLUMNS)
        columns = OrderedDict(
            (name, np.concatenate([np.asarray(p, dtype=dtypes[name])
                                   for p in parts[name]])
             if parts[name] else np.empty(0, dtype=dtypes[name]))
            for name, _ in DATASET_COLUMNS
        )
        return cls(columns, extents, name=dataset.name, kind="dataset",
                   n_users=dataset.n_users, n_items=dataset.n_items)


def _check_ids(values, bound, label):
    """Validate an id column fits uint32 (and the declared universe)."""
    if len(values) == 0:
        return
    lo = int(values.min())
    hi = int(values.max())
    if lo < 0:
        raise ValueError(f"{label} contains negative id {lo}")
    limit = int(np.iinfo(USER_DTYPE).max)
    if hi > limit:
        raise ValueError(f"{label} id {hi} exceeds uint32 storage")
    if bound is not None and hi >= bound:
        raise ValueError(f"{label} id {hi} outside universe of {bound}")


# ----------------------------------------------------------------------
# Binary format (dtypes are stored as ``np.dtype.str``, e.g. '<u4' —
# endianness-explicit)
# ----------------------------------------------------------------------
class ColumnarWriter:
    """Chunked out-of-core writer for the columnar binary format.

    Rows arrive in append batches (bounded RAM); each column spills to a
    temp file next to the destination.  :meth:`finalize` streams the
    spills into the final column-major payload through the one file
    writer (:func:`_write_file`).  Use as a context manager — an
    exception cleans up the spills and never touches ``path``::

        with ColumnarWriter(path, DATASET_COLUMNS, name="x") as writer:
            writer.new_extent(domain="D1", index=0, split="train")
            writer.append(users=u, items=i, labels=y)
    """

    def __init__(self, path, columns, *, kind="dataset", name="columnar",
                 n_users=None, n_items=None, meta=None,
                 checksum_chunk_bytes=_DEFAULT_CHECKSUM_CHUNK):
        if checksum_chunk_bytes < 1024:
            raise ValueError("checksum_chunk_bytes must be >= 1 KiB")
        self.path = os.fspath(path)
        self.columns = OrderedDict(
            (name_, np.dtype(dtype)) for name_, dtype in columns
        )
        if not self.columns:
            raise ValueError("need at least one column")
        self.kind = kind
        self.name = name
        self.n_users = n_users
        self.n_items = n_items
        self.meta = dict(meta or {})
        self.checksum_chunk_bytes = int(checksum_chunk_bytes)
        self.rows = 0
        self._extents = []
        self._extent_open = False
        self._finalized = False
        # Spills live next to the destination so finalize's copy never
        # crosses filesystems; create the directory on first use.
        dest_dir = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(dest_dir, exist_ok=True)
        self._spill_dir = tempfile.mkdtemp(
            prefix=".columnar-spill-", dir=dest_dir,
        )
        self._spills = {
            name_: open(os.path.join(self._spill_dir, name_), "wb")
            for name_ in self.columns
        }

    # -- context management --------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            if not self._finalized:
                self.finalize()
        elif not self._finalized:
            self.abort()
        return False

    # -- appending ------------------------------------------------------
    def new_extent(self, **meta):
        """Close the current extent (if any) and open a new one."""
        self._require_open()
        self._extents.append([self.rows, self.rows, dict(meta)])
        self._extent_open = True

    def append(self, **arrays):
        """Append one batch of rows (all columns, equal lengths)."""
        self._require_open()
        if not self._extent_open:
            raise ValueError("call new_extent() before append()")
        if set(arrays) != set(self.columns):
            raise ValueError(
                f"append needs exactly columns {sorted(self.columns)}, "
                f"got {sorted(arrays)}"
            )
        lengths = {name: len(np.asarray(value))
                   for name, value in arrays.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"ragged append: {lengths}")
        n = next(iter(lengths.values()))
        if n == 0:
            return
        for name, dtype in self.columns.items():
            value = np.asarray(arrays[name])
            cast = self._cast(name, value, dtype)
            self._spills[name].write(np.ascontiguousarray(cast).tobytes())
        self.rows += n
        self._extents[-1][1] = self.rows

    def _cast(self, name, value, dtype):
        if value.dtype == dtype:
            return value
        if dtype.kind == "u":
            _check_ids(
                value,
                self.n_users if name == "users"
                else self.n_items if name == "items" else None,
                name,
            )
        return value.astype(dtype)

    def _require_open(self):
        if self._finalized:
            raise ValueError("writer already finalized")

    # -- finalize -------------------------------------------------------
    def finalize(self):
        """Assemble the final file; returns the parsed header dict."""
        self._require_open()
        for handle in self._spills.values():
            handle.close()

        def spill_chunks(name):
            with open(os.path.join(self._spill_dir, name), "rb") as spill:
                yield from iter(lambda: spill.read(8 * 1024 * 1024), b"")

        sections = [
            ({"name": name, "dtype": dtype.str,
              "nbytes": self.rows * dtype.itemsize}, spill_chunks(name))
            for name, dtype in self.columns.items()
        ]
        try:
            return _write_file(self.path, sections, {
                "kind": self.kind,
                "name": self.name,
                "n_users": self.n_users,
                "n_items": self.n_items,
                "rows": self.rows,
                "extents": [
                    {"start": start, "stop": stop, "meta": meta}
                    for start, stop, meta in self._extents
                ],
                "meta": self.meta,
            }, self.checksum_chunk_bytes)
        finally:
            self.abort()

    def abort(self):
        """Drop the spills without finalizing; ``path`` is left as it was."""
        self._finalized = True
        for handle in self._spills.values():
            if not handle.closed:
                handle.close()
        for name in self.columns:
            spill = os.path.join(self._spill_dir, name)
            if os.path.exists(spill):
                os.unlink(spill)
        if os.path.isdir(self._spill_dir):
            os.rmdir(self._spill_dir)


def _write_file(path, sections, header, checksum_chunk_bytes):
    """Write one ``RPROCOL1`` file atomically; returns its header.

    ``sections`` pairs each section's ``spec`` (``name``, ``dtype``,
    ``nbytes``, optional ``shape``) with an iterable of its bytes.  The
    file goes to ``<path>.tmp``, is fsync'd and renamed over ``path``:
    a writer that dies leaves the previous ``path`` intact.
    """
    layout = []
    offset = _PREAMBLE_BYTES
    for spec, _ in sections:
        offset = _align(offset)
        layout.append(dict(spec, offset=offset))
        offset += spec["nbytes"]
    payload_stop = offset

    digests = []
    hasher = [hashlib.sha256(), 0]   # current chunk hasher, bytes fed

    def feed(chunk):
        view = memoryview(chunk)
        while len(view):
            room = checksum_chunk_bytes - hasher[1]
            take = view[:room]
            hasher[0].update(take)
            hasher[1] += len(take)
            if hasher[1] == checksum_chunk_bytes:
                digests.append(hasher[0].hexdigest())
                hasher[0] = hashlib.sha256()
                hasher[1] = 0
            view = view[room:]

    path = os.fspath(path)
    partial = path + ".tmp"
    try:
        with open(partial, "wb") as out:
            out.write(b"\x00" * _PREAMBLE_BYTES)
            position = _PREAMBLE_BYTES
            for spec, (_, chunks) in zip(layout, sections):
                padding = b"\x00" * (spec["offset"] - position)
                out.write(padding)
                feed(padding)
                position += len(padding)
                for chunk in chunks:
                    out.write(chunk)
                    feed(chunk)
                    position += len(chunk)
                if position != spec["offset"] + spec["nbytes"]:
                    raise SerializationError(
                        f"section {spec['name']!r} holds "
                        f"{position - spec['offset']} bytes, expected "
                        f"{spec['nbytes']}"
                    )
            if hasher[1]:
                digests.append(hasher[0].hexdigest())

            header = dict(
                header,
                format_version=COLUMNAR_FORMAT_VERSION,
                columns=layout,
                payload_stop=payload_stop,
                checksum_chunk_bytes=checksum_chunk_bytes,
                chunk_checksums=digests,
            )
            header_bytes = json.dumps(header, sort_keys=True).encode()
            out.write(header_bytes)

            out.seek(0)
            out.write(_MAGIC)
            out.write(np.uint64(payload_stop).tobytes())
            out.write(np.uint64(len(header_bytes)).tobytes())
            out.write(hashlib.sha256(header_bytes).digest())
            out.flush()
            os.fsync(out.fileno())
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.unlink(partial)
        raise
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return header


def write_arrays(path, arrays, *, kind, meta=None):
    """Persist ``{name: ndarray}`` of any shapes to one ``RPROCOL1`` file.

    Each array becomes one section that records its dtype and shape.
    ``kind`` tags the file (:func:`read_arrays` refuses any other kind)
    and ``meta``, a JSON-able dict, rides in the checksummed header.
    Returns the header.
    """
    sections = []
    for name, array in arrays.items():
        array = np.asarray(array)
        raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        sections.append(({
            "name": name, "dtype": array.dtype.str,
            "shape": array.shape, "nbytes": array.nbytes,
        }, [raw]))
    return _write_file(path, sections, {"kind": kind, "meta": meta or {}},
                       _DEFAULT_CHECKSUM_CHUNK)


def read_arrays(path, kind):
    """Load ``({name: ndarray}, meta)`` from a :func:`write_arrays` file.

    The header is verified first, then every payload chunk's digest;
    nothing comes back from a file that fails either check or holds
    another ``kind``.  The arrays are writable views of one buffer.
    """
    header = _read_header(path)
    if header["kind"] != kind:
        raise SerializationError(
            f"{path}: a {header['kind']!r} file, not a {kind!r} file"
        )
    payload = bytearray().join(_payload_chunks(path, header))
    arrays = OrderedDict(
        (spec["name"], _section(payload, spec, start=_PREAMBLE_BYTES))
        for spec in header["columns"]
    )
    return arrays, header["meta"]


def _section(buffer, spec, start=0):
    """Section ``spec`` as an array over ``buffer``, which begins at file
    offset ``start``; a section without a ``shape`` is a 1-D column."""
    dtype = np.dtype(spec["dtype"])
    array = np.frombuffer(
        buffer, dtype=dtype, count=spec["nbytes"] // dtype.itemsize,
        offset=spec["offset"] - start,
    )
    return array.reshape(spec.get("shape", -1))


def _payload_chunks(path, header):
    """Stream the payload in checksum chunks, verifying each before it
    is yielded; the first mismatch raises :class:`SerializationError`."""
    chunk_bytes = int(header["checksum_chunk_bytes"])
    expected = header["chunk_checksums"]
    remaining = int(header["payload_stop"]) - _PREAMBLE_BYTES
    with open(path, "rb") as handle:
        handle.seek(_PREAMBLE_BYTES)
        for index in range(max(len(expected), -(-remaining // chunk_bytes))):
            chunk = handle.read(min(chunk_bytes, remaining))
            remaining -= len(chunk)
            if (index >= len(expected)
                    or hashlib.sha256(chunk).hexdigest() != expected[index]):
                raise SerializationError(
                    f"{path}: payload chunk {index} failed checksum "
                    "verification; the file is corrupt or was modified "
                    "after writing"
                )
            yield chunk


def _read_header(path):
    """Parse and verify preamble + header; O(1) in the payload size."""
    size = os.path.getsize(path)
    if size < _PREAMBLE_BYTES:
        raise SerializationError(
            f"{path}: {size} bytes is smaller than the preamble; not a "
            "columnar file (or catastrophically truncated)"
        )
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE_BYTES)
        if preamble[:8] != _MAGIC:
            raise SerializationError(
                f"{path}: bad magic {preamble[:8]!r}; not a columnar file"
            )
        header_offset = int(np.frombuffer(preamble, np.uint64, 1, 8)[0])
        header_len = int(np.frombuffer(preamble, np.uint64, 1, 16)[0])
        header_digest = preamble[24:56]
        if header_offset + header_len != size:
            raise SerializationError(
                f"{path}: declared size {header_offset + header_len} != "
                f"actual {size}; the file is truncated or grew after "
                "finalize"
            )
        handle.seek(header_offset)
        header_bytes = handle.read(header_len)
    if hashlib.sha256(header_bytes).digest() != header_digest:
        raise SerializationError(
            f"{path}: header failed checksum verification; the partition "
            "table is corrupt"
        )
    try:
        header = json.loads(header_bytes)
    except ValueError as error:  # pragma: no cover - digest catches first
        raise SerializationError(f"{path}: malformed header: {error}") from error
    version = int(header.get("format_version", -1))
    if version > COLUMNAR_FORMAT_VERSION:
        raise SerializationError(
            f"{path} uses columnar format version {version}, but this "
            f"build only reads up to {COLUMNAR_FORMAT_VERSION}"
        )
    for spec in header["columns"]:
        stop = spec["offset"] + spec["nbytes"]
        if spec["offset"] < _PREAMBLE_BYTES or stop > header["payload_stop"]:
            raise SerializationError(
                f"{path}: column {spec['name']!r} escapes the payload "
                "region; the header is inconsistent"
            )
    return header


class ColumnarStore(InteractionStore):
    """A columnar file opened as one read-only memory mapping.

    All column arrays are zero-copy ``np.frombuffer`` views of a single
    ``mmap``; opening touches only the preamble and header.  ``close()``
    raises ``BufferError`` while any view (including tables handed to
    consumers) is still alive — the interpreter tracks buffer exports, so
    unmapping under a live view is impossible rather than a segfault.
    """

    backend = "mmap"

    def __init__(self, path, header, mapping, columns):
        self.path = os.fspath(path)
        self._mm = mapping
        self.header = header
        extents = [
            Extent(entry["start"], entry["stop"], entry["meta"])
            for entry in header["extents"]
        ]
        super().__init__(
            columns, extents, name=header["name"], kind=header["kind"],
            n_users=header["n_users"], n_items=header["n_items"],
            meta=header["meta"],
        )
        if self.rows != header["rows"]:
            raise SerializationError(
                f"{path}: header declares {header['rows']} rows but the "
                f"columns hold {self.rows}"
            )

    @classmethod
    def open(cls, path, verify=False):
        """Map a columnar file; O(1) unless ``verify`` streams the payload."""
        header = _read_header(path)
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            columns = OrderedDict(
                (spec["name"], _section(mapping, spec))
                for spec in header["columns"]
            )
            store = cls(path, header, mapping, columns)
        except Exception:
            mapping.close()
            raise
        if verify:
            store.verify_checksums()
        return store

    def verify_checksums(self):
        """Stream the payload and compare every chunk digest (O(payload))."""
        for _ in _payload_chunks(self.path, self.header):
            pass

    def release(self):
        """Return resident payload pages to the OS (data stays on disk).

        The mapping remains fully valid — subsequently touched pages
        fault back in from the file.  Called between chunks of an epoch
        pass, this is what keeps peak RSS flat regardless of dataset
        size.
        """
        madvise = getattr(self._mm, "madvise", None)
        if madvise is not None and hasattr(mmap, "MADV_DONTNEED"):
            madvise(mmap.MADV_DONTNEED)

    def close(self):
        """Unmap the file.  Raises ``BufferError`` if views are alive."""
        self.columns = OrderedDict()
        self._mm.close()


# ----------------------------------------------------------------------
# Dataset adapters
# ----------------------------------------------------------------------
def write_dataset(path, dataset, chunk_rows=1 << 20,
                  checksum_chunk_bytes=_DEFAULT_CHECKSUM_CHUNK):
    """Persist a :class:`MultiDomainDataset` to one columnar file.

    Rows are laid out domain-major (every domain's train/val/test splits
    are contiguous extents), appended in ``chunk_rows`` batches so
    arbitrarily large tables stream through bounded memory.
    """
    with ColumnarWriter(
        path, DATASET_COLUMNS, kind="dataset", name=dataset.name,
        n_users=dataset.n_users, n_items=dataset.n_items,
        checksum_chunk_bytes=checksum_chunk_bytes,
    ) as writer:
        for domain in dataset:
            for split in ("train", "val", "test"):
                table = getattr(domain, split)
                writer.new_extent(domain=domain.name, index=domain.index,
                                  split=split)
                for start in range(0, len(table), chunk_rows):
                    stop = min(start + chunk_rows, len(table))
                    writer.append(
                        users=table.users[start:stop],
                        items=table.items[start:stop],
                        labels=table.labels[start:stop],
                    )
    return path


def dataset_from_store(store, *, user_features=None, item_features=None,
                       splits=("train", "val", "test")):
    """Rebuild the :class:`MultiDomainDataset` surface over a store.

    Every table is a zero-copy column-range view; the returned dataset
    carries ``store`` so callers can ``release()`` pages or ``close()``
    the mapping through it.
    """
    by_index = {}
    for extent in store.extents:
        meta = extent.meta
        if "index" not in meta or "split" not in meta:
            raise SerializationError(
                f"store {store.name!r} has a non-dataset extent {meta!r}; "
                "expected domain/index/split partition metadata"
            )
        by_index.setdefault(int(meta["index"]), {})[meta["split"]] = extent
    domains = []
    for index in sorted(by_index):
        extents = by_index[index]
        missing = [split for split in splits if split not in extents]
        if missing:
            raise SerializationError(
                f"domain index {index} is missing splits {missing}"
            )
        tables = {
            split: store.table(extents[split].start, extents[split].stop)
            for split in splits
        }
        domains.append(Domain(
            name=extents[splits[0]].meta.get("domain", f"D{index}"),
            index=index, **tables,
        ))
    return MultiDomainDataset(
        store.name, domains, n_users=store.n_users, n_items=store.n_items,
        user_features=user_features, item_features=item_features,
        store=store,
    )


def open_dataset(path, *, verify=False, user_features=None,
                 item_features=None):
    """Open a columnar dataset file as a memory-mapped dataset (O(1))."""
    store = ColumnarStore.open(path, verify=verify)
    return dataset_from_store(
        store, user_features=user_features, item_features=item_features
    )
