"""Low-level training helpers shared by all frameworks."""

from __future__ import annotations

from ..data.batching import iter_minibatches
from ..nn.compile import active_executor, eager_step
from ..nn.optim import make_optimizer
from ..nn.sparse import SparseGrad
from ..utils import profiling

__all__ = ["train_steps", "make_inner_optimizer", "compute_loss_gradient"]


def train_steps(model, table, domain, optimizer, rng, batch_size, max_steps):
    """Run up to ``max_steps`` minibatch updates of ``model`` on one domain.

    Steps route through the model's :class:`~repro.nn.StepExecutor` — the
    first occurrence of a batch signature traces eagerly, the rest replay
    the compiled tape.  Inside :func:`repro.nn.eager_execution` (or a
    sanitizer mode) each batch takes one :func:`repro.nn.compile.eager_step`.

    Returns the mean training loss over the executed steps (0.0 when the
    table is empty).
    """
    executor = active_executor(model)
    total, steps = 0.0, 0
    for batch in iter_minibatches(table, domain, batch_size, rng=rng,
                                  max_batches=max_steps):
        start = profiling.tick()
        if executor is not None:
            loss_value = executor.step(batch, optimizer)
        else:
            loss_value = eager_step(model, batch, optimizer)
        profiling.tock("train.step", start)
        total += loss_value
        steps += 1
    return total / steps if steps else 0.0


def make_inner_optimizer(model, config):
    """Fresh inner-loop optimizer per the config (state starts clean)."""
    return make_optimizer(
        config.inner_optimizer, model.parameters(), config.inner_lr
    )


def compute_loss_gradient(model, batch):
    """Gradient of the batch loss as ``{name: ndarray}`` (used by PCGrad,
    Weighted Loss and the conflict probes)."""
    loss = model.loss(batch)
    model.zero_grad()
    loss.backward()
    grads = {}
    for name, param in model.named_parameters():
        if param.grad is not None:
            grad = param.grad
            # Callers (PCGrad, MLDG, conflict probes) do dense state algebra
            # on these, so materialize sparse embedding grads here.
            grads[name] = (
                # lint: allow[dense-grad-materialization] — sanctioned interop.
                grad.to_dense() if isinstance(grad, SparseGrad) else grad.copy()
            )
    return loss.item(), grads
