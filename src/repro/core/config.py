"""Training configuration shared by every learning framework.

Field names follow the paper's notation: ``inner_lr`` is α (Eq. 2),
``outer_lr`` is β (Eq. 3), ``dr_lr`` is γ (Eq. 8) and ``sample_k`` is the
number of helper domains DR samples (Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["TrainConfig"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for training.

    Defaults follow the paper's public-benchmark setup (Adam inner loop,
    β ∈ {0.5, 0.1}, k around 3-5) re-tuned for the scaled-down benchmark
    datasets: with ~100x less data per domain than the paper, the optimal
    inner learning rate shifts from 1e-3 to 1e-2 (fewer, larger steps) and a
    handful of epochs with validation-based snapshot selection suffices.
    """

    epochs: int = 8
    batch_size: int = 128
    inner_lr: float = 1e-2          # α — inner-loop learning rate
    outer_lr: float = 0.5           # β — DN outer-loop step (paper: 0.5 or 0.1 best)
    dr_lr: float = 0.1              # γ — DR meta step
    sample_k: int = 3               # k — helper domains per DR round
    inner_steps: int | None = None  # minibatch steps per domain visit (None = full pass)
    dn_rounds: int = 2              # DN epochs per framework epoch: the outer
                                    # update advances ~β of an alternate epoch,
                                    # so 1/β rounds keep data-movement parity
    dr_steps: int = 4               # minibatch steps per DR stage
    inner_optimizer: str = "adam"   # optimizer for inner loops
    finetune_steps: int = 12        # steps for finetune-style baselines
    momentum: float = 0.0

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.outer_lr <= 1.0:
            raise ValueError("outer_lr (beta) must be in (0, 1]")
        if not 0.0 < self.dr_lr <= 1.0:
            raise ValueError("dr_lr (gamma) must be in (0, 1]")
        if self.sample_k < 0:
            raise ValueError("sample_k must be >= 0")

    def updated(self, **changes):
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def joint_steps_per_epoch(self, dataset):
        """Per-epoch step count for frameworks that sample one batch from
        *every* domain per step (Weighted Loss, PCGrad, MLDG, MAML).

        With ``inner_steps=None`` (full-pass semantics for sequential
        frameworks) this returns the mean number of batches per domain, so
        joint and sequential frameworks consume comparable data per epoch.
        """
        if self.inner_steps is not None:
            return self.inner_steps
        total = dataset.total_interactions("train")
        mean_batches = total / (dataset.n_domains * self.batch_size)
        return max(1, round(mean_batches))
