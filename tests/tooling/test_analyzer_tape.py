"""Static tape certification: clean tapes certify, planted bugs are
caught, and the certificate agrees with the dynamic bitwise oracle.

The planted-bug corpus mutates real compiled tapes *after* tracing — an
aliasing overwrite (two kernels sharing one output buffer), a
dtype-drifting kernel (float32 where the engine contract is float64) —
and each must produce findings under the matching rule.  The oracle
property: every statically certified tape must also pass
``replay_verified`` (the eager bitwise re-run) — certification may never
be *weaker* than the dynamic check it licenses skipping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DomainSpec, SyntheticConfig, generate_dataset, sample_batch
from repro.models import MODEL_REGISTRY, build_model
from repro.nn.compile import executor_for
from repro.nn.optim import make_optimizer
from repro.tooling import sanitizer
from repro.tooling.analyze import run_tape_frontend
from repro.tooling.analyzer import Report, certify, verify_tape
from repro.utils import profiling
from repro.utils.seeding import spawn_rng

pytestmark = pytest.mark.analyzer

ALL_MODELS = sorted(MODEL_REGISTRY)


@pytest.fixture(scope="module")
def dataset():
    specs = tuple(DomainSpec(f"C{i}", 80, 0.25 + 0.05 * i) for i in range(2))
    return generate_dataset(SyntheticConfig(
        name="analyzer", domains=specs, n_users=60, n_items=40,
        latent_dim=4, feature_mode="fixed", feature_dim=8, seed=0,
    ))


def trace(dataset, name="mlp", seed=0):
    model = build_model(name, dataset, seed=seed)
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    rng = spawn_rng(seed, "analyzer", "batch", name)
    batch = sample_batch(dataset.domain(0).train, 0, 16, rng)
    tape = executor_for(model).tape_for(batch, optimizer)
    assert tape is not None, f"{name} unexpectedly bailed out of compilation"
    return model, optimizer, batch, tape


def rules_of(findings):
    return {f.rule for f in findings}


class TestCertification:
    def test_clean_tape_certifies(self, dataset):
        _, _, _, tape = trace(dataset)
        certificate = certify(tape, name="tape:mlp")
        assert certificate.certified
        assert certificate.findings == []
        assert certificate.bail_reason == ""
        assert certificate.n_kernels == len(tape._forward_kinds)
        assert certificate.imprecise == 0

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_every_registry_model_tape_is_certified(self, dataset, name):
        """The acceptance bar: every tape the tier-1 models produce is
        statically certified (none needs a bail excuse today)."""
        _, _, _, tape = trace(dataset, name)
        certificate = certify(tape, name=f"tape:{name}")
        assert certificate.certified, certificate.bail_reason

    def test_columnar_dtype_batches_trace_and_certify(self):
        """The analyzer's columnar case (uint32 ids, float32 labels on a
        trainable-embedding model) must compile, not bail, and certify."""
        report = Report()
        certificates = run_tape_frontend(report, models=["mlp", "star"])
        assert report.findings == []
        assert sorted(certificates) == ["mlp/columnar", "mlp/d0",
                                        "star/columnar", "star/d0"]
        assert all(cert.certified for cert in certificates.values())

    def test_executor_attaches_certificate_at_trace(self, dataset):
        _, _, _, tape = trace(dataset)
        assert tape.certificate is not None
        assert tape.certificate.certified
        assert tape.verify_mode == "static"

    def test_buffer_plan_is_consistent(self, dataset):
        _, _, _, tape = trace(dataset)
        findings, _, plan = verify_tape(tape)
        assert findings == []
        assert plan.n_buffers == plan.n_pinned + plan.n_ephemeral
        assert plan.arena_bytes <= plan.total_bytes
        assert plan.saved_bytes == plan.total_bytes - plan.arena_bytes
        assert len(plan.assignments) == plan.n_ephemeral
        if plan.n_ephemeral:
            assert plan.n_slots <= plan.n_ephemeral

    def test_certify_never_raises(self):
        class Broken:
            pass

        certificate = certify(Broken())
        assert not certificate.certified
        assert "verifier error" in certificate.bail_reason


class TestPlantedBugs:
    def test_aliasing_overwrite_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
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
        findings, _, _ = verify_tape(tape, name="tape:planted-alias")
        assert "tape-alias-overwrite" in rules_of(findings)
        certificate = certify(tape)
        assert not certificate.certified
        assert "tape-alias-overwrite" in certificate.bail_reason

    def test_dtype_drift_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        rec = next(r for r in tape._node_records if r.kind == "fused_dense")
        rec.out.data = rec.out.data.astype("float32")  # planted downcast
        findings, _, _ = verify_tape(tape, name="tape:planted-dtype")
        assert "tape-dtype-drift" in rules_of(findings)
        assert not certify(tape).certified

    def test_shape_corruption_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        rec = next(r for r in tape._node_records if r.kind == "fused_dense")
        rec.out.data = np.zeros(rec.out.data.shape + (1,))
        findings, _, _ = verify_tape(tape, name="tape:planted-shape")
        assert rules_of(findings) & {"tape-shape", "tape-transfer"}

    def test_structure_mismatch_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        tape._forward_kinds = list(tape._forward_kinds)[:-1]
        findings, _, plan = verify_tape(tape, name="tape:planted-structure")
        assert "tape-structure" in rules_of(findings)
        assert plan is None

    def test_uncertified_tape_stays_on_dynamic_verification(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        tape.certificate = certify(Ellipsis)  # guaranteed uncertified
        assert tape.verify_mode == "replay"
        with profiling.profile() as prof:
            with sanitizer.replay_verify(strict=False):
                executor_for(model).step(batch, optimizer)
        assert "verify.static_skip" not in prof.ops


class TestOracle:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_certified_implies_bitwise_replay_parity(self, dataset, name):
        """Property: a certificate licenses skipping the eager re-run, so
        every certified tape must pass it.  ``replay_verified`` raises on
        the first bitwise divergence of any op buffer or leaf gradient."""
        model, optimizer, batch, tape = trace(dataset, name)
        assert tape.certificate is not None and tape.certificate.certified
        rng = spawn_rng(1, "analyzer", "oracle", name)
        for _ in range(2):
            check = sample_batch(dataset.domain(0).train, 0, 16, rng)
            tape.replay_verified(check, optimizer, model)  # raises on mismatch

    def test_static_skip_matches_strict_training_bitwise(self, dataset):
        def run(strict):
            model = build_model("mlp", dataset, seed=7)
            optimizer = make_optimizer("adam", model.parameters(), 0.05)
            executor = executor_for(model)
            rng = spawn_rng(7, "analyzer", "skip")
            losses = []
            with sanitizer.replay_verify(strict=strict):
                for _ in range(4):
                    batch = sample_batch(dataset.domain(0).train, 0, 16, rng)
                    losses.append(executor.step(batch, optimizer))
            return losses, model.state_dict()

        strict_losses, strict_state = run(strict=True)
        with profiling.profile() as prof:
            fast_losses, fast_state = run(strict=False)
        assert "verify.static_skip" in prof.ops
        assert strict_losses == fast_losses
        assert strict_state.keys() == fast_state.keys()
        for key in strict_state:
            np.testing.assert_array_equal(strict_state[key], fast_state[key])

    def test_strict_default_still_catches_structure_change(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        assert tape.verify_mode == "static"
        with profiling.profile() as prof:
            with sanitizer.replay_verify():  # strict by default
                executor_for(model).step(batch, optimizer)
        assert "verify.static_skip" not in prof.ops
