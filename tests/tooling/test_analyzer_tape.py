"""Static tape certification: clean tapes certify, planted bugs are
caught, and the certificate agrees with the dynamic bitwise oracle.

The planted-bug corpus mutates real compiled tapes *after* tracing — an
aliasing overwrite (two kernels sharing one output buffer), a
dtype-drifting kernel (float32 where the engine contract is float64) —
and each must produce findings under the matching rule.  The oracle
property: every statically certified tape must also pass
``replay_verified`` (the eager bitwise re-run) — certification may never
be *weaker* than the dynamic check.  Certification is a CI check only:
training never imports the analyzer.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import DomainSpec, SyntheticConfig, generate_dataset, sample_batch
from repro.models import MODEL_REGISTRY, build_model
from repro.nn.compile import executor_for
from repro.nn.optim import make_optimizer
from repro.tooling import analyze
from repro.tooling.analyze import _columnar, _tape_dataset, run_tape_frontend
from repro.tooling.analyzer import Report, certify, tape_verifier
from repro.utils.seeding import spawn_rng

pytestmark = pytest.mark.analyzer

ALL_MODELS = sorted(MODEL_REGISTRY)
BASELINE = Path(__file__).resolve().parents[2] / "analyzer_baseline.json"


@pytest.fixture(scope="module")
def dataset():
    specs = tuple(DomainSpec(f"C{i}", 80, 0.25 + 0.05 * i) for i in range(2))
    return generate_dataset(SyntheticConfig(
        name="analyzer", domains=specs, n_users=60, n_items=40,
        latent_dim=4, feature_mode="fixed", feature_dim=8, seed=0,
    ))


@pytest.fixture(scope="module")
def trainable_dataset():
    """The analyzer's ``columnar`` case: trainable embeddings."""
    return _tape_dataset(0, "trainable")


def trace(dataset, name="mlp", seed=0, convert=None):
    model = build_model(name, dataset, seed=seed)
    optimizer = make_optimizer("adam", model.parameters(), 0.05)
    rng = spawn_rng(seed, "analyzer", "batch", name)
    batch = sample_batch(dataset.domain(0).train, 0, 16, rng)
    if convert is not None:
        batch = convert(batch)
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

    def test_verifier_crash_fails_the_analyze_run(self, monkeypatch):
        """A crash inside the verifier must fail the CI run, not turn
        into an uncertified tape with zero findings and exit 0."""
        def crash(*args):
            raise RuntimeError("planted verifier crash")

        monkeypatch.setattr(tape_verifier, "_check_backward", crash)
        with pytest.raises(RuntimeError, match="planted verifier crash"):
            analyze.main(["--frontend", "tape", "--models", "mlp",
                          "--baseline", str(BASELINE)])


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
        findings = certify(tape, name="tape:planted-alias").findings
        assert "tape-alias-overwrite" in rules_of(findings)
        certificate = certify(tape)
        assert not certificate.certified
        assert "tape-alias-overwrite" in certificate.bail_reason

    def test_dtype_drift_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        rec = next(r for r in tape._node_records if r.kind == "fused_dense")
        rec.out.data = rec.out.data.astype("float32")  # planted downcast
        findings = certify(tape, name="tape:planted-dtype").findings
        assert "tape-dtype-drift" in rules_of(findings)
        assert not certify(tape).certified

    def test_shape_corruption_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        rec = next(r for r in tape._node_records if r.kind == "fused_dense")
        rec.out.data = np.zeros(rec.out.data.shape + (1,))
        findings = certify(tape, name="tape:planted-shape").findings
        assert rules_of(findings) & {"tape-shape", "tape-transfer"}

    def test_structure_mismatch_is_caught(self, dataset):
        model, optimizer, batch, tape = trace(dataset)
        tape._forward_kinds = list(tape._forward_kinds)[:-1]
        findings = certify(tape, name="tape:planted-structure").findings
        assert "tape-structure" in rules_of(findings)


class TestOracle:
    @pytest.mark.parametrize("name, case", [
        *(pytest.param(name, "d0", id=name) for name in ALL_MODELS),
        *(pytest.param(name, "columnar", id=f"{name}-columnar")
          for name in ALL_MODELS),
    ])
    def test_certified_implies_bitwise_replay_parity(
        self, request, name, case
    ):
        """Property: every certified tape passes the eager bitwise re-run,
        on both cases the CI run certifies — fixed features (``d0``) and
        trainable embeddings fed columnar dtypes (``columnar``).
        ``replay_verified`` raises on the first bitwise divergence of any
        op buffer or leaf gradient."""
        if case == "d0":
            dataset, convert = request.getfixturevalue("dataset"), None
        else:
            dataset = request.getfixturevalue("trainable_dataset")
            convert = _columnar
        model, optimizer, _, tape = trace(dataset, name, convert=convert)
        certificate = certify(tape, name=f"tape:{name}/{case}")
        assert certificate.certified, certificate.bail_reason
        rng = spawn_rng(1, "analyzer", "oracle", name)
        for _ in range(2):
            check = sample_batch(dataset.domain(0).train, 0, 16, rng)
            if convert is not None:
                check = convert(check)
            tape.replay_verified(check, optimizer, model)  # raises on mismatch


class TestProductPath:
    def test_fit_does_not_import_the_analyzer(self):
        """Training never certifies: a short ``Session.fit`` in a fresh
        interpreter leaves ``repro.tooling.analyzer`` unimported."""
        script = textwrap.dedent("""
            import sys
            from repro.train import Session, SessionConfig
            config = SessionConfig(
                dataset="taobao10_sim", scale=0.3, model="mlp", seed=0,
                train={"epochs": 1},
            )
            Session(config).fit()
            loaded = sorted(m for m in sys.modules
                            if m.startswith("repro.tooling.analyzer"))
            print(loaded)
            sys.exit(1 if loaded else 0)
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
