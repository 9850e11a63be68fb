"""The example scripts stay importable and well-formed.

Full executions live outside the unit suite (they train for minutes); here
we import each script and check its structure, which catches API drift —
the most common way examples rot.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLE_FILES}
    assert {
        "quickstart",
        "custom_model",
        "sparse_domains",
        "distributed_training",
        "framework_shootout",
    } <= names


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_importable_with_main(path):
    module = load(path)
    assert callable(getattr(module, "main", None)), f"{path.stem} lacks main()"
    assert module.__doc__, f"{path.stem} lacks a docstring"
    assert "Run:" in module.__doc__


def test_custom_model_class_is_trainable(tiny_dataset, fast_config):
    """The custom model defined in the example genuinely works with MAMDR."""
    import numpy as np

    module = load(EXAMPLES_DIR / "custom_model.py")
    from repro.core import MAMDR
    from repro.metrics import evaluate_bank
    from repro.models import build_encoder

    rng = np.random.default_rng(0)
    model = module.TwoTowerInteraction(
        build_encoder(tiny_dataset, field_dim=8, rng=rng), rng
    )
    bank = MAMDR().fit(model, tiny_dataset, fast_config, seed=0)
    report = evaluate_bank(bank, tiny_dataset)
    assert len(report.per_domain) == tiny_dataset.n_domains
