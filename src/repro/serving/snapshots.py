"""Versioned model snapshots for online serving.

The deployment of Section IV-E publishes a trained
:class:`~repro.core.param_space.DomainParameterSpace` to the serving tier:
per-domain combined states ``Θ_i = θ_S + θ_i`` behind a parameter server.
A :class:`ModelSnapshot` is one immutable published version; a
:class:`SnapshotStore` holds the live version and hot-swaps it atomically —
a reader that grabbed :meth:`SnapshotStore.current` finishes its whole
batch on that object while new requests see the new version.

Materialization is copy-on-write: the shared state is copied (and frozen)
once, and every per-domain entry whose specific delta is exactly zero —
untouched embedding tables, frozen fields — *aliases* the frozen shared
array instead of holding an ``θ_S + 0`` copy.  Publishing ``n_domains``
combined states therefore does not cost ``n_domains`` full model copies.

Persistence is one crash-safe, checksummed ``RPROCOL1`` file
(:func:`repro.data.columnar.write_arrays`) holding each distinct array
once; a truncated or bit-flipped snapshot fails at load time instead of
silently serving garbage parameters.

For the multi-process predictor pool (:mod:`repro.traffic.pool`) the COW
materialization extends *across processes*: a
:class:`SharedSnapshotArena` packs every unique array of a snapshot —
each aliased ``θ_S`` table exactly once — into a single
``multiprocessing.shared_memory`` segment, and workers attach zero-copy,
read-only views.  Segments are generation-tagged so a hot reload under
load creates a fresh segment and flips workers atomically, while requests
already in flight finish on the generation they pinned.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from ..data.columnar import read_arrays, write_arrays

__all__ = ["ModelSnapshot", "SnapshotStore", "SharedSnapshotArena"]


def _freeze(array):
    """Mark an array read-only (published snapshots are immutable)."""
    array.setflags(write=False)
    return array


def _snapshot_entries(snapshot):
    """Deduplicate a snapshot's arrays by identity: ``(arrays, entries)``.

    ``arrays`` maps a key to each distinct array once (a ``θ_S`` table
    aliased by forty domains is one key); ``entries`` names the states
    through those keys — ``{"default_state": [(name, key)] or None,
    "states": {domain: [(name, key)]}}``.
    """
    keys = {}   # id(array) -> key
    arrays = OrderedDict()

    def intern(array):
        key = keys.get(id(array))
        if key is None:
            key = keys[id(array)] = f"a{len(keys)}"
            arrays[key] = array
        return key

    default_entries = None
    if snapshot.default_state is not None:
        default_entries = [
            (name, intern(value))
            for name, value in snapshot.default_state.items()
        ]
    state_entries = {
        int(domain): [(name, intern(value)) for name, value in state.items()]
        for domain, state in snapshot.states.items()
    }
    return arrays, {"default_state": default_entries, "states": state_entries}


def _snapshot_states(arrays, entries):
    """Rebuild ``(states, default_state)`` from :func:`_snapshot_entries`;
    entries naming one key share one array, so COW aliasing survives."""
    default_state = None
    if entries["default_state"] is not None:
        default_state = OrderedDict(
            (name, arrays[key]) for name, key in entries["default_state"]
        )
    states = {
        int(domain): OrderedDict((name, arrays[key]) for name, key in named)
        for domain, named in entries["states"].items()
    }
    return states, default_state


class ModelSnapshot:
    """One immutable published version of per-domain serving states.

    Attributes
    ----------
    version:
        Monotonically increasing publish counter (1, 2, ...).
    states:
        ``{domain: {name: ndarray}}`` combined per-domain states; arrays
        are read-only and may alias :attr:`default_state` entries (COW).
    default_state:
        The shared state ``θ_S``, served to unknown domains.
    """

    def __init__(self, version, states, default_state, metadata=None):
        self.version = version
        self.states = states
        self.default_state = default_state
        self.metadata = dict(metadata or {})

    @property
    def domains(self):
        return sorted(self.states)

    def state_for(self, domain):
        """The combined state serving ``domain`` (shared θ_S fallback)."""
        state = self.states.get(domain)
        if state is None:
            if self.default_state is None:
                raise KeyError(f"no parameters published for domain {domain}")
            return self.default_state
        return state

    def rows_for(self, name, domain, ids):
        """Combined rows ``Θ_domain[name][ids]`` — the simulated PS pull.

        O(len(ids)) gather out of the materialized table; this is the
        backing fetch of the serve-side embedding cache.
        """
        return self.state_for(domain)[name][ids]

    def cow_stats(self):
        """How much publishing saved: aliased vs. copied per-domain arrays.

        ``aliased_arrays``/``copied_arrays`` count per *domain* entry (the
        serving view); ``unique_states``/``copied_bytes`` deduplicate by
        state object, so domains sharing a cluster-level state (the
        clustered space's tail) are charged once.
        """
        aliased = copied = 0
        bytes_saved = copied_bytes = 0
        seen_states = set()
        for state in self.states.values():
            first_visit = id(state) not in seen_states
            seen_states.add(id(state))
            for name, value in state.items():
                base = (
                    self.default_state.get(name)
                    if self.default_state is not None else None
                )
                if base is not None and value is base:
                    aliased += 1
                    bytes_saved += value.nbytes
                else:
                    copied += 1
                    if first_visit:
                        copied_bytes += value.nbytes
        return {
            "aliased_arrays": aliased,
            "copied_arrays": copied,
            "bytes_saved": bytes_saved,
            "unique_states": len(seen_states),
            "copied_bytes": copied_bytes,
        }


class SnapshotStore:
    """Versioned snapshot registry with atomic hot-swap.

    ``publish`` fully materializes the new :class:`ModelSnapshot` *before*
    installing it with a single reference assignment, so a concurrent
    reader either sees the complete old version or the complete new one —
    never a half-published mixture.  Readers must pin ``current()`` once
    per batch and use only that object for the batch's lifetime.
    """

    def __init__(self, keep=2):
        if keep < 1:
            raise ValueError("must keep at least the live snapshot")
        self._keep = keep
        self._versions = OrderedDict()
        self._current = None
        # Rollback anchor: the version that was live before the latest
        # install.  Never pruned, so a publication that fails its gate can
        # always roll back — even under retention pressure (keep=1).
        self._previous = None
        self._next_version = 1

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, space, metadata=None):
        """Materialize and hot-swap a :class:`DomainParameterSpace`.

        Copy-on-write against a frozen copy of ``θ_S``: zero-delta entries
        alias the shared array (see module docstring).  Materialization is
        delegated to the space's ``cow_states``, which yields one state
        per delta-sharing group — a clustered space with 10k tail domains
        in 64 clusters publishes 64 states, and every member domain maps
        to its group's (frozen, shared) state object.
        """
        shared = OrderedDict(
            (name, _freeze(value.copy())) for name, value in space.shared.items()
        )
        states = {}
        for domains, state in space.cow_states(shared):
            frozen = OrderedDict(
                (name, value if value is shared[name] else _freeze(value))
                for name, value in state.items()
            )
            for domain in domains:
                states[domain] = frozen
        return self._install(states, shared, metadata)

    def publish_states(self, domain_states, default_state=None,
                       metadata=None):
        """Publish explicit per-domain states (e.g. a trained ``StateBank``).

        COW here is by *value*: an entry bit-identical to the default state
        aliases it, which catches the common "this domain never diverged
        from θ_S for this table" case at the cost of one comparison pass.
        """
        default = None
        if default_state is not None:
            default = OrderedDict(
                (name, _freeze(value.copy()))
                for name, value in default_state.items()
            )
        states = {}
        for domain, state in domain_states.items():
            out = OrderedDict()
            for name, value in state.items():
                base = default.get(name) if default is not None else None
                if base is not None and value.shape == base.shape and (
                    np.array_equal(value, base)
                ):
                    out[name] = base
                else:
                    out[name] = _freeze(np.array(value, dtype=np.float64))
            states[int(domain)] = out
        return self._install(states, default, metadata)

    def _install(self, states, default_state, metadata):
        snapshot = ModelSnapshot(
            self._next_version, states, default_state, metadata=metadata,
        )
        self._next_version += 1
        self._versions[snapshot.version] = snapshot
        # The swap itself: one reference assignment. In-flight readers
        # keep whatever snapshot object they already pinned.
        self._previous = self._current
        self._current = snapshot
        self._prune()
        return snapshot

    def _prune(self):
        # Retention never evicts the live version or the rollback anchor:
        # everything else goes oldest-first until the budget holds.  The
        # protected versions are skipped (not a loop break), so retention
        # pressure cannot pin unrelated old versions behind them.
        protected = {self._current.version}
        if self._previous is not None:
            protected.add(self._previous.version)
        for version in list(self._versions):
            if len(self._versions) <= self._keep:
                break
            if version in protected:
                continue
            del self._versions[version]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def current(self):
        """The live snapshot (pin this once per batch)."""
        if self._current is None:
            raise LookupError("no snapshot published yet")
        return self._current

    @property
    def version(self):
        return self.current().version

    def versions(self):
        """Retained version numbers, oldest first."""
        return list(self._versions)

    def get(self, version):
        snapshot = self._versions.get(version)
        if snapshot is None:
            raise KeyError(
                f"version {version} is not retained "
                f"(have {self.versions() or 'none'})"
            )
        return snapshot

    def rollback(self, version):
        """Atomically re-install a retained older version.

        The version rolled away *from* becomes the new rollback anchor,
        so it survives retention and the rollback itself can be undone.
        """
        target = self.get(version)
        if target is not self._current:
            self._previous = self._current
        self._current = target
        return self._current

    # ------------------------------------------------------------------
    # Persistence (one RPROCOL1 file, each distinct array once)
    # ------------------------------------------------------------------
    def save(self, path, version=None):
        """Persist one snapshot (default: the live one) atomically."""
        snapshot = self.current() if version is None else self.get(version)
        arrays, entries = _snapshot_entries(snapshot)
        write_arrays(path, arrays, kind="snapshot", meta=entries)
        return snapshot.version

    def load(self, path, metadata=None):
        """Publish a snapshot file as a new version; a truncated, corrupt
        or foreign file raises ``SerializationError`` and installs nothing.
        """
        arrays, entries = read_arrays(path, kind="snapshot")
        states, default_state = _snapshot_states(
            {key: _freeze(value) for key, value in arrays.items()}, entries,
        )
        return self._install(states, default_state, metadata)


# ----------------------------------------------------------------------
# Cross-process zero-copy materialization
# ----------------------------------------------------------------------
_ALIGN = 64  # cache-line alignment for every packed array


class SharedSnapshotArena:
    """One snapshot's arrays packed into a shared-memory segment.

    The parent calls :meth:`materialize` once per published generation;
    the COW structure of the :class:`ModelSnapshot` is preserved exactly —
    arrays are deduplicated by identity, so a ``θ_S`` table aliased by
    forty domains occupies the segment once and every worker maps it once.
    Workers call :meth:`attach` with the (picklable) :attr:`manifest` and
    receive a :class:`ModelSnapshot` whose arrays are read-only, zero-copy
    views into the segment — bit-identical to the parent's snapshot, so
    the pooled serving path inherits the single-process parity guarantee.

    Lifecycle: the creating side owns the segment and must call
    :meth:`unlink` when no worker can still flip to this generation;
    attached sides call :meth:`close` after dropping every view (the pool
    does this when it flips to a newer generation).
    """

    def __init__(self, segment, manifest, snapshot, owner, views=()):
        self._segment = segment
        self.manifest = manifest
        self.snapshot = snapshot
        self._owner = owner
        self._closed = False
        # Weak references to every view handed out by ``attach``: closing
        # the segment while a view is alive would unmap memory under it
        # (``SharedMemory.close`` does not reliably detect numpy exports),
        # so ``close`` refuses until they are all garbage.
        self._views = [weakref.ref(view) for view in views]

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    @classmethod
    def materialize(cls, snapshot, generation, spare=None):
        """Pack ``snapshot`` into a shared segment (parent side).

        ``spare``, a retired owner-side arena no worker can flip to any
        more, is packed into when large enough, else unlinked for a fresh
        segment; the caller drops it either way.  An owner keeps its spare
        *mapped*: copying 10.9 MB takes 0.8 ms into pages it has touched,
        3.3 ms into the same segment closed and re-mapped by name, 4.5 ms
        into a fresh one — so do not "save RSS" by closing it.
        """
        arrays, entries = _snapshot_entries(snapshot)
        layout = {}
        dtype_names = {}  # str(dtype) builds the name anew on every call
        offset = 0
        for key, array in arrays.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            if array.dtype not in dtype_names:
                dtype_names[array.dtype] = str(array.dtype)
            layout[key] = {
                "offset": offset,
                "shape": tuple(array.shape),
                "dtype": dtype_names[array.dtype],
            }
            offset += array.nbytes
        size = max(1, offset)
        if spare is not None and spare.nbytes >= size:
            # The segment changes hands; the spare object becomes inert.
            segment, spare._owner, spare._closed = spare._segment, False, True
        else:
            if spare is not None:
                spare.unlink()
            segment = shared_memory.SharedMemory(create=True, size=size)
        for key, array in arrays.items():
            view = np.ndarray(
                array.shape, dtype=array.dtype,
                buffer=segment.buf, offset=layout[key]["offset"],
            )
            view[...] = array
        manifest = {
            "segment": segment.name,
            "generation": int(generation),
            "version": snapshot.version,
            "arrays": layout,
            **entries,
            "metadata": dict(snapshot.metadata),
        }
        del view
        return cls(segment, manifest, snapshot, owner=True)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, manifest):
        """Map an existing segment and rebuild its :class:`ModelSnapshot`.

        Views are built once per array key and shared between every state
        entry that referenced the same key, so COW aliasing survives the
        process boundary (``cow_stats`` on the attached snapshot reports
        the same aliased/copied split as the parent's).

        Attach from the owning process or one of its ``fork`` children
        only: CPython registers POSIX shared memory with the resource
        tracker even on attach (bpo-38119), and only a *shared* tracker —
        fork inherits the owner's — deduplicates that registration
        instead of unlinking the owner's segment at exit.
        """
        segment = shared_memory.SharedMemory(name=manifest["segment"])
        views = {}
        for key, spec in manifest["arrays"].items():
            view = np.ndarray(
                tuple(spec["shape"]), dtype=spec["dtype"],
                buffer=segment.buf, offset=spec["offset"],
            )
            view.setflags(write=False)
            views[key] = view
        states, default_state = _snapshot_states(views, manifest)
        snapshot = ModelSnapshot(
            manifest["version"], states, default_state,
            metadata=manifest["metadata"],
        )
        return cls(segment, manifest, snapshot, owner=False,
                   views=views.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self):
        return self.manifest["generation"]

    @property
    def version(self):
        return self.manifest["version"]

    @property
    def nbytes(self):
        return self._segment.size

    def close(self):
        """Release this process's mapping (drop all views first).

        Returns ``True`` when the mapping was actually released; ``False``
        when live views still pin the buffer (the caller retries after the
        views die — the pool keeps a zombie list for exactly that).
        Closing under a live view would unmap memory it still points at,
        so liveness is tracked explicitly via weak references.
        """
        if self._closed:
            return True
        self.snapshot = None
        if any(ref() is not None for ref in self._views):
            return False
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - backstop on other builds
            return False
        self._closed = True
        return True

    def unlink(self):
        """Destroy the segment (owner side, after every worker flipped)."""
        if not self._owner:
            raise RuntimeError("only the materializing process may unlink")
        self.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
