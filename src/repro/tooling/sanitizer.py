"""Runtime autodiff sanitizer — Layer 1 of the correctness tooling.

PR 1 made the training hot path fast with exactly the techniques that breed
silent autodiff bugs: zero-copy minibatch views, in-place state algebra
(``state_add_`` / ``state_interpolate_``) over raw parameter buffers, and
sparse embedding gradients.  A stale or aliased buffer does not crash — it
quietly corrupts the DN/DR outer-loop deltas that are the core of MAMDR.
This module provides the guard rails PyTorch uses for the same problem:

* **Version counters** — every :class:`~repro.nn.tensor.Tensor` carries a
  ``_version`` integer bumped on each in-place mutation of its buffer
  (optimizer steps, ``load_state_dict``, the in-place ops in
  ``repro.nn.state`` — including mutations through raw numpy *views* of a
  parameter, traced back to their owner via the registry below).  Under
  :func:`sanitize`, every graph node records its operands' versions at
  forward time and :meth:`Tensor.backward` re-checks them, so mutating a
  buffer saved for backward raises a :class:`VersionError` naming the op.

* **Anomaly mode** — under :func:`anomaly_mode`, every graph node records
  its creation stack and op name; the first op whose forward output or
  backward gradient contains NaN/Inf raises an :class:`AnomalyError`
  pinpointing that op and where it was created.

* **Graph diagnostics** — :func:`graph_census` counts live (retained) graph
  nodes by op, and :func:`densify_counts` tracks unexpected
  :class:`~repro.nn.sparse.SparseGrad` densifications (also surfaced
  through ``repro.utils.profiling`` as ``sparse.densify`` counters).

Both modes are **off by default** and near-zero-cost when disabled: the
engine consults a single module flag (``_ACTIVE`` in ``tensor._apply``, one
attribute check per backward node) before doing any sanitizer work.  This
module deliberately imports nothing from ``repro.nn`` so the engine can
import it without cycles.
"""

from __future__ import annotations

import contextlib
import gc
import traceback
import weakref
from collections import Counter

import numpy as np

__all__ = [
    "SanitizerError",
    "VersionError",
    "AnomalyError",
    "sanitize",
    "anomaly_mode",
    "enabled",
    "anomaly_enabled",
    "register_owner",
    "forget_owner",
    "rebind_owner",
    "notify_mutation",
    "graph_census",
    "densify_counts",
    "note_densify",
    "ReplayMismatchError",
    "replay_verify",
    "replay_verify_enabled",
]

# Module-level flags read directly (as attributes) by the engine's hot path.
# _ACTIVE is the single "any sanitizer feature on?" gate checked per node.
_VERSION_CHECKS = False
_ANOMALY = False
_ACTIVE = False
# Replay verification is deliberately NOT part of _ACTIVE: it checks the
# *compiled* executor, so it must leave compiled execution enabled.
_REPLAY_VERIFY = False


class SanitizerError(RuntimeError):
    """Base class for all sanitizer-detected failures."""


class VersionError(SanitizerError):
    """A buffer saved for backward was mutated before backward consumed it."""


class AnomalyError(SanitizerError):
    """An op produced NaN/Inf in its forward output or backward gradient."""


class ReplayMismatchError(SanitizerError):
    """A compiled tape replay diverged (bitwise) from eager execution."""


def enabled():
    """Whether version-counter checking (``sanitize``) is active."""
    return _VERSION_CHECKS


def anomaly_enabled():
    """Whether NaN/Inf localisation (``anomaly_mode``) is active."""
    return _ANOMALY


def replay_verify_enabled():
    """Whether compiled-replay bitwise verification is active."""
    return _REPLAY_VERIFY


def _refresh_active():
    global _ACTIVE
    _ACTIVE = _VERSION_CHECKS or _ANOMALY


@contextlib.contextmanager
def replay_verify(on=True):
    """Verify every compiled tape replay **bitwise** against eager within.

    Inside the context, each replayed training step is immediately re-run
    eagerly on the same inputs (with the dropout RNG streams rewound) and
    every primitive's forward buffer plus every leaf gradient is compared
    for exact binary equality; the first divergence raises
    :class:`ReplayMismatchError` naming the op.  Steps that were not
    compiled (trace steps, eager fallbacks) are unaffected.  Orthogonal to
    :func:`sanitize` / :func:`anomaly_mode`, which force eager execution.
    """
    global _REPLAY_VERIFY
    previous = _REPLAY_VERIFY
    _REPLAY_VERIFY = bool(on)
    try:
        yield
    finally:
        _REPLAY_VERIFY = previous


@contextlib.contextmanager
def sanitize(on=True):
    """Enable version-counter checks (and the live-node census) within.

    Graphs built inside the context record operand versions; their
    ``backward()`` raises :class:`VersionError` if any saved buffer was
    mutated in place after the forward pass.
    """
    global _VERSION_CHECKS
    previous = _VERSION_CHECKS
    _VERSION_CHECKS = bool(on)
    _refresh_active()
    try:
        yield
    finally:
        _VERSION_CHECKS = previous
        _refresh_active()


@contextlib.contextmanager
def anomaly_mode(on=True):
    """Enable NaN/Inf localisation within the context.

    Every node created inside records its op name and creation stack; the
    first non-finite forward output raises immediately, and during
    ``backward()`` the first op producing a non-finite gradient raises,
    both naming the op and where it was created.
    """
    global _ANOMALY
    previous = _ANOMALY
    _ANOMALY = bool(on)
    _refresh_active()
    try:
        yield
    finally:
        _ANOMALY = previous
        _refresh_active()


# ----------------------------------------------------------------------
# Buffer-ownership registry.
#
# State-dict algebra operates on raw ``{name: ndarray}`` mappings that may
# be zero-copy views of live parameters (see ``core.param_space`` /
# ``core.negotiation``).  To bump the owning Tensor's version counter when
# such an array is mutated, we keep a map from ``id(buffer)`` to a weakref
# of the owning tensor.  Parameters register at construction and re-register
# whenever their ``data`` is rebound, so entering ``sanitize()`` works
# retroactively on already-built models.
# ----------------------------------------------------------------------

_OWNERS = {}


def register_owner(array, tensor):
    """Record ``tensor`` as the owner of buffer ``array``."""
    key = id(array)

    def _purge(_ref, _key=key):
        _OWNERS.pop(_key, None)

    _OWNERS[key] = weakref.ref(tensor, _purge)


def forget_owner(array):
    """Drop the registry entry for ``array`` (before its id can be reused)."""
    _OWNERS.pop(id(array), None)


def rebind_owner(tensor, old_array):
    """Re-register ``tensor`` after its ``data`` was rebound to a new buffer."""
    forget_owner(old_array)
    register_owner(tensor.data, tensor)


def _owner_of(array):
    """Find the registered owner of ``array`` or any base it is a view of."""
    node = array
    for _ in range(16):  # view chains are shallow; bound the walk
        if node is None:
            return None
        ref = _OWNERS.get(id(node))
        if ref is not None:
            owner = ref()
            if owner is not None:
                return owner
        node = getattr(node, "base", None)
    return None


def notify_mutation(array):
    """Bump the version of the tensor owning ``array`` (or a view of it).

    Called by the in-place state ops when the sanitizer is enabled; a
    mutation of an unregistered array (e.g. an owned clone) is a no-op.
    """
    owner = _owner_of(array)
    if owner is not None:
        owner._version += 1


# ----------------------------------------------------------------------
# Graph-node hooks (called from ``tensor._apply`` / ``Tensor.backward``
# only when ``_ACTIVE`` / a node's saved state says there is work to do).
# ----------------------------------------------------------------------

_LIVE_NODES = weakref.WeakValueDictionary()


def _capture_stack(skip=3, depth=10):
    """A compact creation stack for anomaly reports (innermost last)."""
    frames = traceback.extract_stack()[:-skip]
    return "".join(traceback.format_list(frames[-depth:]))


def on_node_created(out, parents, op):
    """Annotate a freshly created graph node of kind ``op`` with sanitizer state."""
    out._op = op
    if _VERSION_CHECKS and out._backward is not None:
        # Saved-buffer versions: self (many VJPs read the output, e.g.
        # exp/tanh/fused_dense) followed by each operand.
        out._saved_versions = (out._version,) + tuple(
            parent._version for parent in parents
        )
        _LIVE_NODES[id(out)] = out
    if _ANOMALY:
        out._stack = _capture_stack()
        if not np.all(np.isfinite(out.data)):
            raise AnomalyError(
                f"anomaly detected: op '{out._op}' produced NaN/Inf in its "
                f"forward output (shape {out.data.shape}); created at:\n"
                f"{out._stack}"
            )


def check_versions(node):
    """Verify none of a node's saved buffers was mutated since forward."""
    saved_self, saved_parents = node._saved_versions[0], node._saved_versions[1:]
    if node._version != saved_self:
        raise VersionError(
            f"output buffer of op '{node._op}' (saved for backward) was "
            f"modified by an in-place operation: version {node._version}, "
            f"expected {saved_self}"
        )
    for position, (parent, saved) in enumerate(
        zip(node._parents, saved_parents)
    ):
        if parent._version != saved:
            raise VersionError(
                f"one of the buffers needed by the backward of op "
                f"'{node._op}' was modified by an in-place operation: "
                f"operand {position} (shape {parent.shape}) is at version "
                f"{parent._version}, but version {saved} was saved during "
                f"the forward pass"
            )


def check_backward_grads(node, parent_grads):
    """Raise if a node's backward produced a non-finite gradient."""
    for position, grad in enumerate(parent_grads):
        if grad is None:
            continue
        # SparseGrad exposes its nonzero block as ``.values``; duck-type to
        # avoid importing repro.nn here.
        values = getattr(grad, "values", grad)
        if not np.all(np.isfinite(values)):
            where = (
                f"; created at:\n{node._stack}" if node._stack else ""
            )
            raise AnomalyError(
                f"anomaly detected: backward of op '{node._op}' produced "
                f"NaN/Inf in the gradient for operand {position}{where}"
            )


def graph_census(collect=True):
    """Count live (retained) graph nodes by op name.

    Only nodes created under :func:`sanitize` are tracked.  A nonempty
    census after a training step has finished indicates a leaked/retained
    graph (e.g. a loss tensor kept alive across steps).
    """
    if collect:
        gc.collect()
    census = Counter()
    for ref in list(_LIVE_NODES.valuerefs()):
        node = ref()
        if node is not None:
            census[node._op or "<leaf>"] += 1
    return dict(census)


# ----------------------------------------------------------------------
# Densification counters — always on (one Counter increment per densify,
# negligible next to the O(table) allocation it is counting).
# ----------------------------------------------------------------------

_DENSIFY = Counter()


def note_densify(site):
    """Record that a SparseGrad was materialized densely at ``site``."""
    _DENSIFY[site] += 1


def densify_counts(reset=False):
    """Per-site counts of SparseGrad densifications since the last reset."""
    counts = dict(_DENSIFY)
    if reset:
        _DENSIFY.clear()
    return counts
