"""Compile-and-replay executor: bitwise replay parity and guard semantics.

The contract under test is absolute: a compiled replay must be
**bit-for-bit identical** to the eager step it traced — every primitive's
forward buffer, every leaf gradient, every RNG draw.  ``replay_verified``
re-runs the step eagerly and compares op by op, so one verified step over
a graph that touches every registered forward kernel covers the whole
primitive set at once.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import TrainConfig, domain_negotiation_epoch
from repro.core.regularization import domain_regularization_round
from repro.core.param_space import DomainParameterSpace
from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.data.batching import Batch
from repro.models import build_model
from repro.nn import Module, Parameter, eager_execution
from repro.nn import functional as F
from repro.nn import compile as compile_mod
from repro.nn.compile import executor_for
from repro.nn.optim import make_optimizer
from repro.tooling.sanitizer import ReplayMismatchError
from repro.train import Session, SessionConfig
from repro.utils.seeding import spawn_rng

pytestmark = pytest.mark.compile_smoke

VOCAB, N_FIXED, FIXED_DIM = 12, 9, 6
FIXED_FEATURES = spawn_rng(3, "compile", "fixed").normal(size=(N_FIXED, FIXED_DIM))


class OmniModel(Module):
    """One step of this model touches every forward kernel in the tape.

    ``structure_flag`` lets tests change the traced graph *after* tracing,
    which ``replay_verified`` must detect as a structure mismatch.
    """

    multi_domain = False

    def __init__(self, seed=0):
        super().__init__()
        rng = spawn_rng(seed, "compile", "omni")
        self.table = Parameter(rng.normal(size=(VOCAB, 4)) * 0.1)
        self.w1 = Parameter(rng.normal(size=(4 + FIXED_DIM, 8)) * 0.1)
        self.b1 = Parameter(rng.normal(size=(8,)) * 0.1)
        self.w2 = Parameter(rng.normal(size=(4, 1)) * 0.1)
        self._dropout_rng = spawn_rng(seed, "compile", "dropout")
        self.structure_flag = False

    def loss(self, batch):
        emb = F.embedding(self.table, batch.users)
        fixed = F.fixed_gather(FIXED_FEATURES, batch.items)
        x = F.concat([emb, fixed], axis=-1)
        h = F.fused_dense(x, self.w1, self.b1, activation="relu")
        h = F.dropout(h, 0.25, self._dropout_rng, training=self.training)
        s = F.softmax(h, axis=-1)
        t = s.tanh() + h.sigmoid() + F.softplus(h) + F.leaky_relu(h) + h.relu()
        u = ((t * 0.5) - (t / 3.0)).abs() ** 2
        v = (u + 1.0).log().sqrt()
        st = F.stack([v, (-u).exp()], axis=0).sum(axis=0)
        r = st.reshape(len(batch), 2, 4).transpose(0, 2, 1).swapaxes(1, 2)
        logits = (r[:, 0, :] @ self.w2).reshape(len(batch))
        if self.structure_flag:
            logits = logits * 2.0
        main = F.bce_with_logits(logits, batch.labels)
        return main + 0.1 * F.mse_loss(logits, batch.labels) \
            + 1e-4 * F.l2_penalty([self.w1, self.w2])


def make_batch(size, seed):
    rng = spawn_rng(seed, "compile", "batch", size)
    return Batch(
        users=rng.integers(0, VOCAB, size=size),
        items=rng.integers(0, N_FIXED, size=size),
        labels=rng.integers(0, 2, size=size).astype(np.float64),
        domain=0,
    )


def make_tiny_dataset(n_domains=4, seed=0):
    specs = tuple(
        DomainSpec(f"C{i}", 80, 0.25 + 0.05 * i) for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name="compile", domains=specs, n_users=60, n_items=40,
        latent_dim=4, feature_mode="fixed", feature_dim=8, seed=seed,
    ))


class TestReplayParity:
    def test_tape_covers_every_forward_kernel(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
        assert tape is not None, "omni step unexpectedly bailed to eager"
        kinds = {rec.kind for rec in tape._trace_records}
        missing = set(compile_mod._FWD_KERNELS) - kinds
        assert not missing, f"primitives never traced: {sorted(missing)}"

    def test_replay_bitwise_equals_eager_across_all_primitives(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        tape = executor.tape_for(make_batch(6, 0), optimizer)
        # Several post-trace steps: buffers, optimizer slots, dropout
        # streams all advance; every op and leaf grad must stay bitwise
        # equal to eager or replay_verified raises naming the op.
        for step in range(4):
            tape.replay_verified(make_batch(6, step + 1), optimizer, model)

    def test_replay_verified_catches_planted_structure_change(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
        model.structure_flag = True
        with pytest.raises(ReplayMismatchError):
            tape.replay_verified(make_batch(6, 1), optimizer, model)


class TestGuards:
    def test_shape_change_triggers_retrace(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        executor.step(make_batch(6, 0), optimizer)
        executor.step(make_batch(6, 1), optimizer)
        traces_before = executor.traces
        executor.step(make_batch(4, 2), optimizer)  # new shape → guard
        assert executor.traces == traces_before + 1
        assert executor.replays >= 1

    def test_eval_mode_is_a_distinct_signature(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        executor.step(make_batch(6, 0), optimizer)
        traces_before = executor.traces
        model.eval()
        try:
            executor.step(make_batch(6, 1), optimizer)
        finally:
            model.train()
        assert executor.traces == traces_before + 1


class TestDeterminism:
    def test_dropout_streams_identical_under_replay(self):
        """Same seed, same batches: compiled and eager runs are one
        trajectory — losses and final parameters bitwise equal, which can
        only hold if replay draws the identical dropout masks."""
        batches = [make_batch(6, s) for s in range(6)]

        def run(compiled):
            model = OmniModel(seed=0)
            optimizer = make_optimizer("adam", model.parameters(), 0.05)
            executor = executor_for(model)
            losses = []
            for batch in batches:
                if compiled:
                    losses.append(executor.step(batch, optimizer))
                else:
                    losses.append(compile_mod.eager_step(model, batch, optimizer))
            return losses, model.state_dict()

        eager_losses, eager_state = run(compiled=False)
        compiled_losses, compiled_state = run(compiled=True)
        assert eager_losses == compiled_losses
        for name in eager_state:
            assert np.array_equal(eager_state[name], compiled_state[name]), name

    def test_full_dn_dr_epoch_byte_identical(self):
        """Tentpole acceptance: a full DN round plus a DR round produce
        byte-identical loss curves and states, compiled vs eager."""
        dataset = make_tiny_dataset()
        config = TrainConfig(batch_size=16, inner_steps=2, dr_steps=2,
                             sample_k=1)

        def run(compiled):
            model = build_model("mlp", dataset, seed=0)
            space = DomainParameterSpace(model, dataset.n_domains)
            optimizer = make_optimizer(
                config.inner_optimizer, model.parameters(), config.inner_lr
            )
            shared = model.state_dict()
            with nullcontext() if compiled else eager_execution():
                new_shared = domain_negotiation_epoch(
                    model, dataset, shared, config, spawn_rng(5, "dn"),
                    optimizer=optimizer,
                )
                delta = domain_regularization_round(
                    model, dataset, space, 0, config, spawn_rng(5, "dr"),
                )
            return new_shared, delta

        eager = run(False)
        compiled = run(True)
        for reference, candidate in zip(eager, compiled):
            assert set(reference) == set(candidate)
            for name in reference:
                assert np.array_equal(reference[name], candidate[name]), name


class TestCacheLifetime:
    def test_discarded_models_and_optimizers_are_collected(self, monkeypatch):
        """Refcounting alone frees a fit: the model owns its executor, the
        executor holds its model weakly, and Adam's flat buffers belong to
        their optimizer (no optimizer ↔ schedule cycle).  With the cyclic
        collector off, dropping ``Session.fit`` results leaves no model,
        executor, tape or DR inner optimizer (one per helper pass) alive."""
        from repro.core import regularization

        inner = []
        original = regularization.make_inner_optimizer

        def recording(model, config):
            optimizer = original(model, config)
            inner.append(weakref.ref(optimizer))
            return optimizer

        monkeypatch.setattr(regularization, "make_inner_optimizer", recording)
        dataset = make_tiny_dataset()
        train = TrainConfig(epochs=1, batch_size=16, inner_steps=2,
                            dr_steps=2, sample_k=1)
        refs = []
        gc.disable()
        try:
            for seed in range(2):
                config = SessionConfig(dataset=dataset.name, model="mlp",
                                       framework="mamdr", seed=seed,
                                       train=train)
                result = Session(config, dataset=dataset).fit()
                executor = executor_for(result.bank.model)
                assert executor.replays > 0
                refs += [weakref.ref(result.bank.model),
                         weakref.ref(executor)]
                refs += [weakref.ref(tape) for tape in executor._tapes.values()
                         if tape is not None]
                del result, executor
            assert inner
            assert [ref() for ref in refs + inner] == [None] * len(refs + inner)
        finally:
            gc.enable()
