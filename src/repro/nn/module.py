"""Module system: parameter containers with named state dicts.

The learning frameworks in this reproduction (DN, DR, MAMDR, Reptile, ...)
are *model agnostic*: they only interact with a model through its named
parameter state.  :class:`Module` therefore provides exactly the surface the
paper's framework requires — ``named_parameters``, ``state_dict`` and
``load_state_dict`` — plus train/eval mode handling for dropout.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..tooling import sanitizer as _sanitizer
from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True)
        # Parameters are the tensors whose buffers escape as raw arrays
        # (state dicts, zero-copy views); registering ownership lets the
        # sanitizer trace an in-place view mutation back to this tensor.
        _sanitizer.register_owner(self.data, self)

    def assign_rows(self, rows, values):
        """Scatter ``values`` into ``rows`` of this parameter in place.

        The serving row-path (``repro.serving``) refreshes only the
        embedding rows a request batch actually reads, instead of loading
        the whole table per domain switch; this is the sanctioned engine
        entry point for that partial write (version counters stay
        truthful, unlike an ad-hoc ``param.data[rows] = ...``).
        """
        self.data[rows] = np.asarray(values, dtype=np.float64)
        self.bump_version()


class Module:
    """Base class for all models and layers.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically in ``__setattr__``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix=""):
        """Yield ``(dotted_name, Parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=prefix + name + ".")

    def parameters(self):
        """Yield all parameters."""
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix=""):
        """Yield ``(dotted_name, Module)`` pairs, including self as ``""``."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=prefix + name + ".")

    def named_rngs(self):
        """Yield ``(dotted_name, Generator)`` for every module that owns a
        random stream (dropout); the root module's is named ``"."``.

        Those streams advance with each training forward, so whoever
        checkpoints, forks or replays a model has to carry them too.
        """
        for name, module in self.named_modules():
            rng = getattr(module, "_rng", None)
            if rng is not None and hasattr(rng, "bit_generator"):
                yield name or ".", rng

    def num_parameters(self):
        """Total number of scalar parameters."""
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self):
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # State dicts — the model-agnostic interface used by every framework
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return an OrderedDict of parameter copies keyed by dotted name."""
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state, names=None):
        """Copy arrays from ``state`` into the matching parameters.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch — silent partial loads hide bugs in meta-learning code.

        ``names`` optionally restricts the load to a subset of parameter
        names (an *explicit* partial load).  The serving hot path uses this
        to refresh the small dense parameters on a domain switch while
        embedding tables are refreshed row-wise through
        :meth:`Parameter.assign_rows`.
        """
        for name, param in self.named_parameters():
            if names is not None and name not in names:
                continue
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            previous = param.data
            param.data = value.copy()
            param.bump_version()
            _sanitizer.rebind_owner(param, previous)

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode=True):
        """Set training mode recursively (affects dropout etc.)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self):
        """Set evaluation mode recursively."""
        return self.train(False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    """A list of submodules, registered under their integer index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module):
        if not isinstance(module, Module):
            raise TypeError("ModuleList only holds Module instances")
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]
