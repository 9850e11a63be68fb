"""Optimizers over :class:`~repro.nn.module.Parameter` lists.

The paper's large-scale setup pairs different optimizers for the inner and
outer loops (SGD inside, Adagrad on the parameter server); all three
optimizers used anywhere in the paper — SGD, Adam, Adagrad — are provided.

Two performance properties matter here:

* **In-place dense updates** — parameters and slot state are updated with
  ``+=``-style ops instead of reallocating full arrays every step.
* **Sparse fast path** — when a parameter's gradient is a
  :class:`~repro.nn.sparse.SparseGrad` (embedding tables), the update
  touches only the gradient's rows, so a step costs O(batch rows) instead
  of O(table).  Sparse Adam is the *lazily-corrected* variant: each row's
  first/second moments are decayed by ``beta**skipped_steps`` when the row
  is next touched, so a row that receives gradient every step matches dense
  Adam exactly, and untouched rows are never written.
"""

from __future__ import annotations

import numpy as np

from ..utils import profiling
from .sparse import SparseGrad

__all__ = ["Optimizer", "SGD", "Adam", "Adagrad", "make_optimizer"]


def _row_broadcast(factors, values_ndim):
    """Reshape per-row factors [r] to broadcast against row values [r, ...]."""
    return factors.reshape(factors.shape + (1,) * (values_ndim - 1))


class Optimizer:
    """Base optimizer: holds parameters and applies :meth:`step`."""

    def __init__(self, params, lr):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self):
        for param in self.params:
            param.grad = None

    def step(self):
        start = profiling.tick()
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            self._update(index, param)
            # Updates mutate param.data in place; keep the sanitizer's
            # version counter truthful (an int increment, always on).
            param._version += 1
        profiling.tock("optim.step", start)

    def _update(self, index, param):
        raise NotImplementedError

    def reset_state(self):
        """Drop accumulated moments (used when reusing an optimizer across
        meta-learning inner loops, where stale moments leak information)."""

    #: names of the per-param-index slot dicts this optimizer accumulates.
    _slot_attrs = ()

    def state_slots(self):
        """Serializable slot state: ``{attr: {param_index: ndarray}}``.

        Together with :meth:`load_state_slots` this lets a checkpointed
        run (e.g. the parameter server's outer Adagrad) resume with the
        exact accumulated moments it had.
        """
        return {
            attr: {
                int(index): np.array(value, copy=True)
                for index, value in getattr(self, attr).items()
            }
            for attr in self._slot_attrs
        }

    def load_state_slots(self, slots):
        """Restore slot state captured by :meth:`state_slots`."""
        for attr in self._slot_attrs:
            store = getattr(self, attr)
            store.clear()
            for index, value in slots.get(attr, {}).items():
                store[int(index)] = np.array(value, copy=True)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = {}

    _slot_attrs = ("_velocity",)

    def _update(self, index, param):
        grad = param.grad
        if isinstance(grad, SparseGrad):
            if self.momentum or self.weight_decay:
                # Momentum/decay couple every row to every step; fall back
                # to the dense (exact) update rather than approximate.
                grad = grad.to_dense()
            else:
                param.data[grad.rows] -= self.lr * grad.values
                return
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            velocity = self._velocity.get(index)
            if velocity is None:
                velocity = np.zeros_like(param.data)
                self._velocity[index] = velocity
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        param.data -= self.lr * grad

    def reset_state(self):
        self._velocity.clear()


class _FlatMoments:
    """Adam's dense state for one set of parameters, as contiguous buffers.

    The optimizer's per-parameter ``_m`` / ``_v`` slots are rebound to
    views of ``m`` / ``v``, so :meth:`Optimizer.state_slots` and the sparse
    path keep reading and writing the same storage.
    """

    __slots__ = ("indices", "params", "m", "v", "g", "t1", "t2",
                 "grad_views", "update_views")

    def __init__(self, opt, indices):
        self.indices = indices
        self.params = [opt.params[index] for index in indices]
        total = sum(param.data.size for param in self.params)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self.g = np.empty(total)
        self.t1 = np.empty(total)   # ends each step holding the update
        self.t2 = np.empty(total)
        self.grad_views, self.update_views = [], []
        offset = 0
        for index, param in zip(indices, self.params):
            shape = param.data.shape
            segment = slice(offset, offset + param.data.size)
            offset = segment.stop
            m = self.m[segment].reshape(shape)
            v = self.v[segment].reshape(shape)
            if index in opt._m:
                np.copyto(m, opt._m[index])
                np.copyto(v, opt._v[index])
            opt._m[index], opt._v[index] = m, v
            self.grad_views.append(self.g[segment].reshape(shape))
            self.update_views.append(self.t1[segment].reshape(shape))


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the optimizer used for the public benchmarks.

    Dense gradients are updated as one flat buffer: Adam's dense update is
    elementwise, so running each ufunc once over the concatenation of every
    dense-gradient parameter is bit-identical to the per-parameter formula
    and costs a dozen ufunc dispatches per step instead of a dozen per
    parameter.

    Sparse gradients take a lazy row-wise path: moments of untouched rows
    are left stale and caught up with a ``beta**skipped`` decay the next
    time the row appears, which reproduces the dense moment recursion for
    the touched rows without ever writing the full table.  Only the
    moments match: an untouched row takes no parameter step, while dense
    Adam keeps stepping it on its decaying moments, so once a row is
    revisited after a gap the two end states differ.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = {}
        self._v = {}
        self._last_step = {}
        self._t = 0
        self._flat = None

    _slot_attrs = ("_m", "_v", "_last_step")

    def step(self):
        start = profiling.tick()
        self._t += 1
        dense = []
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, SparseGrad):
                self._update_sparse(index, param, grad)
            else:
                dense.append(index)
            param._version += 1
        if dense:
            self._update_dense(tuple(dense))
        profiling.tock("optim.step", start)

    def state_slots(self):
        slots = super().state_slots()
        slots["_t"] = self._t
        return slots

    def load_state_slots(self, slots):
        super().load_state_slots(slots)
        self._t = int(slots.get("_t", 0))
        self._flat = None

    def _slots(self, index, param):
        m = self._m.get(index)
        if m is None:
            m = self._m[index] = np.zeros_like(param.data)
            self._v[index] = np.zeros_like(param.data)
        return m, self._v[index]

    def _update_dense(self, indices):
        flat = self._flat
        if flat is None or flat.indices != indices:
            # A new set of dense-gradient parameters: move its moments into
            # fresh flat buffers (the previous set's views stay valid).
            flat = self._flat = _FlatMoments(self, indices)
        m, v, g, t1, t2 = flat.m, flat.v, flat.g, flat.t1, flat.t2
        for param, view in zip(flat.params, flat.grad_views):
            np.copyto(view, param.grad)
        # Ufunc for ufunc the per-parameter expressions
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
        #   data -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
        beta1, beta2 = self.beta1, self.beta2
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=t1)
        np.add(m, t1, out=m)
        np.multiply(v, beta2, out=v)
        np.square(g, out=t1)
        np.multiply(t1, 1.0 - beta2, out=t1)
        np.add(v, t1, out=v)
        np.divide(m, 1.0 - beta1 ** self._t, out=t1)
        np.divide(v, 1.0 - beta2 ** self._t, out=t2)
        np.sqrt(t2, out=t2)
        np.add(t2, self.eps, out=t2)
        np.multiply(t1, self.lr, out=t1)
        np.divide(t1, t2, out=t1)
        for param, update in zip(flat.params, flat.update_views):
            np.subtract(param.data, update, out=param.data)

    def _update_sparse(self, index, param, grad):
        rows, values = grad.rows, grad.values
        if not rows.size:
            return
        m, v = self._slots(index, param)
        last = self._last_step.get(index)
        if last is None:
            # Rows start with zero moments "as of step 0".
            last = self._last_step[index] = np.zeros(
                param.data.shape[0], dtype=np.int64
            )
        # Lazy correction: decay each touched row's stale moments as if the
        # zero-gradient steps since its last update had been applied.
        skipped = self._t - 1 - last[rows]
        decay1 = _row_broadcast(self.beta1 ** skipped, values.ndim)
        decay2 = _row_broadcast(self.beta2 ** skipped, values.ndim)
        m_rows = m[rows] * (decay1 * self.beta1) + (1.0 - self.beta1) * values
        v_rows = v[rows] * (decay2 * self.beta2) + (1.0 - self.beta2) * values ** 2
        m[rows] = m_rows
        v[rows] = v_rows
        last[rows] = self._t
        m_hat = m_rows / (1.0 - self.beta1 ** self._t)
        v_hat = v_rows / (1.0 - self.beta2 ** self._t)
        param.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset_state(self):
        self._m.clear()
        self._v.clear()
        self._last_step.clear()
        self._t = 0
        self._flat = None


class Adagrad(Optimizer):
    """Adagrad — used on the parameter server in the industry deployment.

    The sparse path is *exactly* equivalent to the dense update: rows with
    zero gradient accumulate nothing and move nothing under dense Adagrad,
    so skipping them changes no bits.
    """

    def __init__(self, params, lr, eps=1e-10):
        super().__init__(params, lr)
        self.eps = eps
        self._accum = {}

    _slot_attrs = ("_accum",)

    def _update(self, index, param):
        grad = param.grad
        accum = self._accum.get(index)
        if accum is None:
            accum = self._accum[index] = np.zeros_like(param.data)
        if isinstance(grad, SparseGrad):
            rows, values = grad.rows, grad.values
            if not rows.size:
                return
            accum_rows = accum[rows] + values ** 2
            accum[rows] = accum_rows
            param.data[rows] -= self.lr * values / (np.sqrt(accum_rows) + self.eps)
            return
        accum += grad ** 2
        param.data -= self.lr * grad / (np.sqrt(accum) + self.eps)

    def reset_state(self):
        self._accum.clear()


_OPTIMIZERS = {"sgd": SGD, "adam": Adam, "adagrad": Adagrad}


def make_optimizer(name, params, lr, **kwargs):
    """Build an optimizer by name (``"sgd"``, ``"adam"``, ``"adagrad"``)."""
    try:
        cls = _OPTIMIZERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; expected one of {sorted(_OPTIMIZERS)}"
        ) from None
    return cls(params, lr, **kwargs)
