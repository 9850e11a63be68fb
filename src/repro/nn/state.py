"""State-dict arithmetic — the algebra of meta-learning updates.

Every algorithm in the paper manipulates whole parameter states:

* DN outer update (Eq. 3):   ``Θ ← Θ + β (Θ~ − Θ)``
* Specific parameters (Eq. 4): ``Θ = θ_S + θ_i``
* DR update (Eq. 8):          ``θ_i ← θ_i + γ (θ_i~ − θ_i)``

These helpers implement that algebra on ``{name: ndarray}`` dicts so the
framework code reads like the paper's equations.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..tooling import sanitizer as _sanitizer

__all__ = [
    "clone_state",
    "zeros_like_state",
    "state_add",
    "state_add_",
    "state_sub",
    "state_sub_",
    "state_scale",
    "state_scale_",
    "state_interpolate",
    "state_interpolate_",
    "state_dot",
    "state_norm",
    "state_allclose",
    "state_checksum",
]


def clone_state(state):
    """Deep-copy a state dict."""
    return OrderedDict((name, value.copy()) for name, value in state.items())


def zeros_like_state(state):
    """A state dict of zeros with matching shapes (initial θ_i deltas)."""
    return OrderedDict((name, np.zeros_like(value)) for name, value in state.items())


def _check_keys(a, b):
    if a.keys() != b.keys():
        missing = set(a) ^ set(b)
        raise KeyError(f"state dicts disagree on keys: {sorted(missing)}")


def state_add(a, b, scale=1.0):
    """Return ``a + scale * b``."""
    _check_keys(a, b)
    return OrderedDict((name, a[name] + scale * b[name]) for name in a)


def state_sub(a, b):
    """Return ``a - b``."""
    _check_keys(a, b)
    return OrderedDict((name, a[name] - b[name]) for name in a)


def state_scale(a, scale):
    """Return ``scale * a``."""
    return OrderedDict((name, scale * value) for name, value in a.items())


def state_interpolate(origin, target, step):
    """Return ``origin + step * (target - origin)`` (Eqs. 3 and 8)."""
    _check_keys(origin, target)
    return OrderedDict(
        (name, origin[name] + step * (target[name] - origin[name]))
        for name in origin
    )


# ----------------------------------------------------------------------
# In-place variants — the DN/DR inner loops run one of these per meta-step,
# and the out-of-place forms allocate a fresh full-model state dict each
# time.  The mutated left operand must be *owned* by the caller (cloned or
# freshly built); ``target``/``b`` may be any name->ndarray mapping, so a
# zero-copy view of live model parameters works.
#
# Because the left operand may itself alias live parameter buffers, each
# in-place op reports its mutations to the sanitizer (one flag check when
# disabled) so tensor version counters stay truthful and a mutated
# saved-for-backward buffer is caught at backward() time.
# ----------------------------------------------------------------------

def _notify_mutations(state):
    """Bump version counters of any tensors whose buffers ``state`` aliases."""
    if _sanitizer._VERSION_CHECKS:
        for value in state.values():
            _sanitizer.notify_mutation(value)


def state_add_(a, b, scale=1.0):
    """In-place ``a += scale * b``; returns ``a``."""
    _check_keys(a, b)
    for name, value in a.items():
        if scale == 1.0:
            value += b[name]
        else:
            value += scale * b[name]
    _notify_mutations(a)
    return a


def state_sub_(a, b):
    """In-place ``a -= b``; returns ``a``."""
    _check_keys(a, b)
    for name, value in a.items():
        value -= b[name]
    _notify_mutations(a)
    return a


def state_scale_(a, scale):
    """In-place ``a *= scale``; returns ``a``."""
    for value in a.values():
        value *= scale
    _notify_mutations(a)
    return a


def state_interpolate_(origin, target, step):
    """In-place ``origin += step * (target - origin)``; returns ``origin``.

    The meta-update of Eqs. 3 and 8 without allocating a result state.
    """
    _check_keys(origin, target)
    for name, value in origin.items():
        value += step * (target[name] - value)
    _notify_mutations(origin)
    return origin


def state_dot(a, b):
    """Inner product over flattened states (used for conflict analysis)."""
    _check_keys(a, b)
    return float(sum(np.dot(a[name].ravel(), b[name].ravel()) for name in a))


def state_norm(a):
    """Euclidean norm of a flattened state."""
    return float(np.sqrt(sum(float(np.sum(value ** 2)) for value in a.values())))


def state_allclose(a, b, atol=1e-10):
    """Whether two states are elementwise close (testing helper)."""
    if a.keys() != b.keys():
        return False
    return all(np.allclose(a[name], b[name], atol=atol) for name in a)


def state_checksum(payload):
    """SHA-256 hex digest over a ``{key: ndarray}`` payload.

    The digest covers key names, dtypes, shapes and raw bytes in sorted key
    order, so it is independent of insertion order but sensitive to any
    value, shape or renaming change.
    """
    digest = hashlib.sha256()
    for key in sorted(payload):
        value = np.ascontiguousarray(payload[key])
        digest.update(key.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()
