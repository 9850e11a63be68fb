"""Compile-and-replay executor: bitwise replay parity and guard semantics.

The contract under test is absolute: a compiled replay must be
**bit-for-bit identical** to the eager step it traced — every primitive's
forward buffer, every leaf gradient, every RNG draw.  ``replay_verified``
re-runs the step eagerly and compares op by op, so one verified step over
a graph that touches every registered forward kernel covers the whole
primitive set at once.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import TrainConfig, domain_negotiation_epoch
from repro.core.regularization import domain_regularization_round
from repro.core.param_space import DomainParameterSpace
from repro.data import DomainSpec, SyntheticConfig, generate_dataset, sample_batch
from repro.data.batching import Batch
from repro.models import MODEL_REGISTRY, build_model
from repro.nn import Module, Parameter, Tensor, eager_execution, use_sparse_grads
from repro.nn import functional as F
from repro.nn import compile as compile_mod
from repro.nn.compile import executor_for
from repro.nn.optim import make_optimizer
from repro.nn.tensor import PRIMITIVES
from repro.tooling.sanitizer import ReplayMismatchError, replay_verify
from repro.train import Session, SessionConfig
from repro.utils import profiling
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
        kinds = {rec.kind for rec in tape._node_records}
        missing = set(PRIMITIVES) - kinds
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


class TableOpModel(Module):
    """A trainable-embedding loss plus one table-op term, ``term(model, emb)``."""

    multi_domain = False

    def __init__(self, term):
        super().__init__()
        rng = spawn_rng(0, "compile", "table")
        self.table = Parameter(rng.normal(size=(VOCAB, 4)) * 0.1)
        self.vec = Parameter(rng.normal(size=(4,)) * 0.1)
        self.col = Parameter(rng.normal(size=(4, 1)) * 0.1)
        self._dropout_rng = spawn_rng(0, "compile", "table", "dropout")
        self.term = term

    def loss(self, batch):
        emb = F.embedding(self.table, batch.users)
        main = F.bce_with_logits(emb.sum(axis=-1), batch.labels)
        return main + self.term(self, emb)


CONST_ROW = Tensor(spawn_rng(4, "compile", "const").normal(size=(4,)))
CONST_COL = Tensor(spawn_rng(5, "compile", "const").normal(size=(4, 1)))
CONST_LABELS = Tensor(spawn_rng(6, "compile", "const").integers(0, 2, size=6) * 1.0)
CONST_INPUT = Tensor(spawn_rng(7, "compile", "const").normal(size=(5, 4)))
CONST_SQUARE = Tensor(spawn_rng(8, "compile", "const").normal(size=(4, 4)))


def read_twice(h):
    """Two consumers of ``h``: its gradient cell accumulates."""
    return (h * h).sum() + h.sum()


def concat_shared_input(emb):
    """A concat input that also feeds another op."""
    doubled = emb * 2.0
    return (F.concat([emb, doubled], axis=-1) ** 2).sum() + doubled.exp().sum()

TABLE_TERMS = {
    # 0-d outputs that their own VJP reads
    "exp-0d": lambda m, emb: (emb * emb).sum().exp(),
    "sqrt-0d": lambda m, emb: ((emb * emb).sum() + 1.0).sqrt(),
    "tanh-0d": lambda m, emb: (emb * emb).sum().tanh(),
    # a trainable (d,) / (d, 1) operand broadcast against (batch, d)
    "add-broadcast": lambda m, emb: ((emb + m.vec) ** 2).mean(),
    "sub-broadcast": lambda m, emb: ((m.vec - emb) ** 2).mean(),
    "mul-broadcast": lambda m, emb: (emb * m.vec).sum(),
    "div-broadcast": lambda m, emb: (emb / (m.vec + 2.0)).sum(),
    "matmul-broadcast": lambda m, emb: (emb.reshape(len(emb), 1, 4) @ m.col).sum(),
    # one constant and one trainable operand: mixed ``needs``
    "mixed-needs": lambda m, emb: (
        (emb - CONST_ROW).sum() + (CONST_ROW / (emb + 2.0)).sum()
        + (emb @ CONST_COL).sum()
    ),
    "dropout": lambda m, emb: F.dropout(emb, 0.25, m._dropout_rng).sum(),
    # configurations the hand-written replay kernels used to refuse
    "bce-sample-weight": lambda m, emb: F.bce_with_logits(
        emb[:, 0], CONST_LABELS, sample_weight=emb[:, 1] ** 2),
    "bce-column-logits": lambda m, emb: F.bce_with_logits(emb[:, :1], CONST_LABELS),
    "fused-dense-sigmoid-const-input": lambda m, emb: F.fused_dense(
        CONST_INPUT, m.col, activation="sigmoid").sum(),
    "fused-dense-tanh-const-input": lambda m, emb: F.fused_dense(
        CONST_INPUT, m.col, activation="tanh").sum(),
    "fused-dense-read-twice": lambda m, emb: read_twice(
        F.fused_dense(emb, m.col, activation="relu")),
    "concat-shared-input": lambda m, emb: concat_shared_input(emb),
    # shape entries: on a graph-interior view and on a parameter copy
    "stack": lambda m, emb: (
        (F.stack([emb, emb * m.vec], axis=1) ** 2).sum()
        + F.stack([m.vec, m.col.reshape(4)], axis=0).sum()
    ),
    "transpose": lambda m, emb: (
        ((emb.transpose() @ emb) * CONST_SQUARE).sum()
        + (m.col.transpose() @ m.col).sum()
    ),
    "swapaxes": lambda m, emb: (
        (emb.reshape(len(emb), 2, 2).swapaxes(1, 2) * CONST_SQUARE[:2, :2]).sum()
        + (m.col.swapaxes(0, 1) @ m.col).sum()
    ),
}


@pytest.mark.parametrize("case", sorted(TABLE_TERMS))
def test_table_op_replays_bitwise(case):
    """Table ops replay through their shared forward/VJP entries: every op
    buffer and leaf gradient stays bitwise eager over several steps."""
    model = TableOpModel(TABLE_TERMS[case])
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
    assert tape is not None, f"{case} unexpectedly bailed to eager"
    for step in range(3):
        tape.replay_verified(make_batch(6, step + 1), optimizer, model)


def replay_verified_steps(model, steps=3):
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
    assert tape is not None, "step unexpectedly bailed to eager"
    for step in range(steps):
        tape.replay_verified(make_batch(6, step + 1), optimizer, model)


class BatchIndexModel(TableOpModel):
    """Adds a getitem whose index is a batch field (staged per replay)."""

    def loss(self, batch):
        return super().loss(batch) + (self.table[batch.users] * CONST_ROW).sum()


def test_getitem_with_batch_index_replays_bitwise():
    replay_verified_steps(BatchIndexModel(lambda m, emb: emb.sum()))


def test_dense_embedding_grads_replay_bitwise():
    with use_sparse_grads(False):
        replay_verified_steps(TableOpModel(lambda m, emb: (emb * m.vec).sum()))


def test_negative_embedding_id_raises_in_eager_and_replay():
    """``F.embedding`` rejects a -1 id whether the step runs eagerly (the
    trace) or replays; eager indexing used to wrap it to the last row."""
    model = TableOpModel(lambda m, emb: emb.sum())
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    executor = executor_for(model)
    bad = dataclasses.replace(make_batch(6, 1), users=np.array([-1, 0, 1, 2, 3, 4]))
    with pytest.raises(IndexError):
        executor.step(bad, optimizer)
    executor.step(make_batch(6, 0), optimizer)
    assert executor.traces == 1
    with pytest.raises(IndexError):
        executor.step(bad, optimizer)


ALL_MODELS = sorted(MODEL_REGISTRY)


def registry_dataset(feature_mode):
    specs = tuple(DomainSpec(f"C{i}", 80, 0.25 + 0.05 * i) for i in range(2))
    return generate_dataset(SyntheticConfig(
        name="oracle", domains=specs, n_users=60, n_items=40,
        latent_dim=4, feature_mode=feature_mode, feature_dim=8, seed=0,
    ))


@pytest.fixture(scope="module")
def fixed_dataset():
    """The ``d0`` case: fixed (non-trainable) item features."""
    return registry_dataset("fixed")


@pytest.fixture(scope="module")
def trainable_dataset():
    """The ``columnar`` case: trainable embeddings."""
    return registry_dataset("trainable")


def columnar(batch):
    """``batch`` in the columnar plane's dtypes: uint32 ids, float32 labels."""
    return dataclasses.replace(
        batch, users=batch.users.astype(np.uint32),
        items=batch.items.astype(np.uint32),
        labels=batch.labels.astype(np.float32),
    )


def registry_case(request, case):
    """``(dataset, convert)`` of one oracle case."""
    if case == "d0":
        return request.getfixturevalue("fixed_dataset"), None
    return request.getfixturevalue("trainable_dataset"), columnar


def registry_batches(dataset, convert, seed, name):
    rng = spawn_rng(seed, "oracle", "batch", name)
    while True:
        batch = sample_batch(dataset.domain(0).train, 0, 16, rng)
        yield batch if convert is None else convert(batch)


def trace_registry(dataset, name="mlp", convert=None):
    model = build_model(name, dataset, seed=0)
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    batch = next(registry_batches(dataset, convert, 0, name))
    tape = executor_for(model).tape_for(batch, optimizer)
    assert tape is not None, f"{name} unexpectedly bailed out of compilation"
    return model, optimizer, tape


class TestRegistryOracle:
    """The one tape check: ``replay_verified`` — replay, then re-run
    eagerly and compare every op buffer and leaf gradient bitwise — on the
    tape of every registry model, both with fixed features (``d0``) and
    with trainable embeddings fed the columnar plane's dtypes
    (``columnar``, the path the online trainer replays)."""

    @pytest.mark.parametrize("case", ["d0", "columnar"])
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_every_registry_tape_replays_bitwise(self, request, name, case):
        dataset, convert = registry_case(request, case)
        model, optimizer, tape = trace_registry(dataset, name, convert)
        batches = registry_batches(dataset, convert, 1, name)
        for _ in range(2):
            # raises ReplayMismatchError on the first bitwise divergence
            tape.replay_verified(next(batches), optimizer, model)

    @pytest.mark.parametrize("name, case", [("mlp", "d0"),
                                            ("star", "columnar")])
    def test_profiled_replay_is_bitwise_eager(self, request, name, case):
        """``--trace`` runs replay through the profiled loops, which zip
        kernels with their labels; they must compute the same bits."""
        dataset, convert = registry_case(request, case)
        model = build_model(name, dataset, seed=0)
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        batches = registry_batches(dataset, convert, 1, name)
        with profiling.profile() as prof, replay_verify():
            for _ in range(4):
                executor.step(next(batches), optimizer)
        assert executor.traces == 1 and executor.replays == 3
        assert any(op.startswith("tape.fwd.") for op in prof.ops)
        assert any(op.startswith("tape.bwd.") for op in prof.ops)

    def test_op_counters_see_replayed_steps(self, fixed_dataset):
        """Replay runs the entries themselves, so their profiling probes
        count every step, not only the trace."""
        model = build_model("mlp", fixed_dataset, seed=0)
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        batches = registry_batches(fixed_dataset, None, 1, "mlp")
        with profiling.profile() as prof:
            for _ in range(4):
                executor.step(next(batches), optimizer)
        assert executor.traces == 1 and executor.replays == 3
        (tape,) = executor._tapes.values()
        nodes = sum(rec.kind == "fused_dense" for rec in tape._node_records)
        assert nodes > 0
        assert prof.ops["dense.fused_forward"].calls == 4 * nodes

    def test_profiled_replay_catches_truncated_labels(self, fixed_dataset):
        """The profiled forward loop runs one kernel per label: a label
        list shorter than the schedule skips kernels and must not pass."""
        model, optimizer, tape = trace_registry(fixed_dataset)
        tape._forward_kinds = list(tape._forward_kinds)[:-1]
        batches = registry_batches(fixed_dataset, None, 1, "mlp")
        tape.replay_verified(next(batches), optimizer, model)
        with profiling.profile(), pytest.raises(ReplayMismatchError):
            tape.replay_verified(next(batches), optimizer, model)


class TestPlantedBugs:
    """Bugs planted into a real compiled ``mlp`` tape after tracing must
    make ``replay_verified`` raise."""

    def check_raises(self, dataset, model, optimizer, tape):
        batch = next(registry_batches(dataset, None, 1, "mlp"))
        with pytest.raises(ReplayMismatchError):
            tape.replay_verified(batch, optimizer, model)

    def test_aliasing_overwrite_is_caught(self, fixed_dataset):
        model, optimizer, tape = trace_registry(fixed_dataset)
        victims = [
            rec for rec in tape._node_records
            if rec.kind in ("tanh", "sigmoid", "relu", "add", "mul")
        ]
        donor = next(
            rec for rec in tape._node_records
            if rec is not victims[-1]
            and rec.out.data.shape == victims[-1].out.data.shape
        )
        # Plant: two kernels now write the same buffer — every consumer of
        # the first write reads after an in-place overwrite.
        victims[-1].out.data = donor.out.data
        self.check_raises(fixed_dataset, model, optimizer, tape)

    def test_dtype_drift_is_caught(self, fixed_dataset):
        model, optimizer, tape = trace_registry(fixed_dataset)
        rec = next(r for r in tape._node_records if r.kind == "fused_dense")
        rec.out.data = rec.out.data.astype("float32")  # planted downcast
        self.check_raises(fixed_dataset, model, optimizer, tape)

    def test_shape_corruption_is_caught(self, fixed_dataset):
        model, optimizer, tape = trace_registry(fixed_dataset)
        rec = next(r for r in tape._node_records if r.kind == "fused_dense")
        rec.out.data = np.zeros(rec.out.data.shape + (1,))
        self.check_raises(fixed_dataset, model, optimizer, tape)

    def test_dropped_forward_kernel_is_caught(self, fixed_dataset):
        model, optimizer, tape = trace_registry(fixed_dataset)
        index = tape._forward_kinds.index("fused_dense")
        del tape._forward[index]
        del tape._forward_kinds[index]
        self.check_raises(fixed_dataset, model, optimizer, tape)


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
