"""MAMDR reproduction — a model-agnostic learning framework for
multi-domain recommendation (Luo et al., ICDE 2023).

Subpackages
-----------
``repro.nn``
    From-scratch autodiff engine, layers and optimizers (the TF substitute).
``repro.data``
    Multi-domain dataset schema, synthetic generator, benchmark presets.
``repro.models``
    The CTR model zoo: MLP, WDL, NeurFM, AutoInt, DeepFM, Shared-Bottom,
    MMoE, CGC, PLE, STAR.
``repro.frameworks``
    Baseline learning frameworks: Alternate(+Finetune), Separate,
    Weighted Loss, PCGrad, MAML, Reptile, MLDG.
``repro.core``
    The paper's contribution: Domain Negotiation, Domain Regularization and
    the unified MAMDR framework.
``repro.distributed``
    Simulated fault-tolerant PS-Worker cluster: typed message transport,
    fault injection, checkpoint/resume and the embedding cache of IV-E.
``repro.train``
    ``Session(config).fit()`` — the unified training facade over
    frameworks and the distributed cluster.
``repro.serving``
    Online inference: versioned snapshots with atomic hot-swap and a
    ``Predictor`` with the serve-side LRU embedding cache.
``repro.metrics`` / ``repro.analysis`` / ``repro.experiments``
    Evaluation, gradient-conflict probes and the table/figure harness.
``repro.tooling``
    Correctness tooling: the runtime autodiff sanitizer (version counters,
    anomaly mode, graph diagnostics) and the repo-invariant AST linter.

Quickstart
----------
>>> from repro.data import taobao_sim
>>> from repro.models import build_model
>>> from repro.core import MAMDR, TrainConfig
>>> from repro.metrics import evaluate_bank
>>> dataset = taobao_sim(10, scale=0.5)
>>> model = build_model("mlp", dataset, seed=0)
>>> bank = MAMDR().fit(model, dataset, TrainConfig(epochs=2), seed=0)
>>> report = evaluate_bank(bank, dataset, method="MLP+MAMDR")
"""

__version__ = "1.0.0"

from . import (
    core,
    data,
    distributed,
    frameworks,
    metrics,
    models,
    nn,
    serving,
    tooling,
    train,
    utils,
)

__all__ = [
    "core",
    "data",
    "distributed",
    "frameworks",
    "metrics",
    "models",
    "nn",
    "serving",
    "tooling",
    "train",
    "utils",
    "__version__",
]
