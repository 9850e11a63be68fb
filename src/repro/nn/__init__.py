"""``repro.nn`` — the from-scratch deep-learning substrate.

A vectorized reverse-mode autodiff engine (:mod:`repro.nn.tensor`), a module
system with named state dicts (:mod:`repro.nn.module`), layers, initializers,
optimizers, and state-dict arithmetic used by every meta-learning algorithm
in this reproduction.
"""

from . import functional
from .compile import (
    StepExecutor,
    compilation_enabled,
    eager_execution,
    eager_step,
    executor_for,
    active_executor,
)
from .init import glorot_uniform, he_uniform, normal, zeros
from .layers import (
    Dense,
    Dropout,
    Embedding,
    Identity,
    LayerNorm,
    MLPBlock,
    PartitionedNorm,
)
from .module import Module, ModuleList, Parameter
from .optim import SGD, Adagrad, Adam, Optimizer, make_optimizer
from .serialization import (
    SerializationError,
    load_bank_states,
    load_state,
    save_bank_states,
    save_state,
    state_checksum,
)
from .sparse import SparseGrad, sparse_grads_enabled, use_sparse_grads
from .state import (
    clone_state,
    state_add,
    state_add_,
    state_allclose,
    state_dot,
    state_interpolate,
    state_interpolate_,
    state_norm,
    state_scale,
    state_scale_,
    state_sub,
    state_sub_,
    zeros_like_state,
)
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "ModuleList",
    "Parameter",
    "Dense",
    "Dropout",
    "Embedding",
    "Identity",
    "LayerNorm",
    "MLPBlock",
    "PartitionedNorm",
    "Optimizer",
    "SGD",
    "Adam",
    "Adagrad",
    "make_optimizer",
    "save_state",
    "load_state",
    "save_bank_states",
    "load_bank_states",
    "SerializationError",
    "state_checksum",
    "functional",
    "glorot_uniform",
    "he_uniform",
    "normal",
    "zeros",
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
    "SparseGrad",
    "use_sparse_grads",
    "sparse_grads_enabled",
    "StepExecutor",
    "eager_execution",
    "compilation_enabled",
    "executor_for",
    "active_executor",
    "eager_step",
]
