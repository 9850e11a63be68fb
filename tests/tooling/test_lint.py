"""Unit tests for the repo-invariant AST lint pass.

Each rule is exercised against small fixture snippets — one violating and
one clean — plus waiver handling, the cross-file gradcheck-coverage rule
over a synthetic repo tree, and the whole-repo invariant that
``python -m repro.tooling.lint src/`` exits 0.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.tooling.lint import all_rules, lint_paths, lint_source, main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_fired(source, path="repro/somewhere/module.py"):
    return sorted({v.rule for v in lint_source(textwrap.dedent(source), path)})


class TestRawRandom:
    def test_flags_np_random_calls(self):
        assert rules_fired("""
            import numpy as np
            rng = np.random.default_rng(0)
        """) == ["raw-random"]

    def test_flags_numpy_random_attribute(self):
        assert rules_fired("""
            import numpy
            x = numpy.random.rand(3)
        """) == ["raw-random"]

    def test_flags_import_from_numpy_random(self):
        assert rules_fired("""
            from numpy.random import default_rng
        """) == ["raw-random"]

    def test_flags_stdlib_random_import(self):
        assert rules_fired("""
            import random
            x = random.random()
        """) == ["raw-random"]

    def test_flags_import_from_stdlib_random(self):
        assert rules_fired("""
            from random import choice
        """) == ["raw-random"]

    def test_flags_stdlib_random_attribute(self):
        # Even without the import in this snippet, attribute access on a
        # name called ``random`` is flagged — chaos replay depends on every
        # random draw flowing through a seeded generator.
        assert rules_fired("""
            x = random.uniform(0, 1)
        """) == ["raw-random"]

    def test_sanctioned_in_seeding_module(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(source, "src/repro/utils/seeding.py") == []

    def test_stdlib_random_sanctioned_in_seeding_module(self):
        source = "import random\nrandom.seed(0)\n"
        assert lint_source(source, "src/repro/utils/seeding.py") == []

    def test_clean_spawn_rng_usage(self):
        assert rules_fired("""
            from repro.utils.seeding import spawn_rng
            rng = spawn_rng(0, "init")
        """) == []


class TestDtypeDrift:
    def test_flags_astype_float32_in_nn(self):
        assert rules_fired("""
            import numpy as np
            def f(x):
                return x.astype(np.float32)
        """, path="src/repro/nn/foo.py") == ["dtype-drift"]

    def test_flags_dtype_keyword_string(self):
        assert rules_fired("""
            import numpy as np
            x = np.zeros(3, dtype="float32")
        """, path="src/repro/nn/foo.py") == ["dtype-drift"]

    def test_float64_and_int64_allowed(self):
        assert rules_fired("""
            import numpy as np
            a = x.astype(np.float64, copy=False)
            b = np.asarray(i, dtype=np.int64)
        """, path="src/repro/nn/foo.py") == []

    def test_out_of_scope_outside_nn(self):
        assert rules_fired("""
            import numpy as np
            x = np.zeros(3, dtype=np.float32)
        """, path="src/repro/data/foo.py") == []

    def test_flags_downcast_in_serving_and_online(self):
        # Both bit-parity-guaranteeing subsystems are in scope: a single
        # float32 downcast breaks serving == offline forward exactness.
        source = """
            import numpy as np
            x = np.zeros(3, dtype=np.float32)
        """
        assert rules_fired(source,
                           path="src/repro/serving/foo.py") == ["dtype-drift"]
        assert rules_fired(source,
                           path="src/repro/online/foo.py") == ["dtype-drift"]

    def test_dynamic_dtype_variable_allowed(self):
        # sparse.py's __array__(dtype=None) pattern: a variable, not a literal
        assert rules_fired("""
            def __array__(self, dtype=None):
                return dense.astype(dtype)
        """, path="src/repro/nn/foo.py") == []

    def test_flags_downcast_in_columnar_data_plane(self):
        # The columnar store is in scope: ad-hoc float32 literals outside
        # the sanctioned np.dtype(...) constants are exactly the
        # silent-downcast drift the rule exists to stop.
        assert rules_fired("""
            import numpy as np
            x = np.zeros(3, dtype=np.float32)
        """, path="src/repro/data/columnar.py") == ["dtype-drift"]

    def test_sanctioned_dtype_constants_clean_in_columnar(self):
        # The single declaration points: positional np.dtype(np.float32)
        # (not an astype literal, not a dtype= keyword) stays clean.
        assert rules_fired("""
            import numpy as np
            LABEL_DTYPE = np.dtype(np.float32)
            x = values.astype(LABEL_DTYPE)
        """, path="src/repro/data/columnar.py") == []


class TestRowIteration:
    def test_flags_for_loop_over_column(self):
        assert rules_fired("""
            def f(table):
                total = 0
                for user in table.users:
                    total += user
                return total
        """, path="src/repro/data/foo.py") == ["row-iteration"]

    def test_flags_zip_over_columns(self):
        assert rules_fired("""
            def f(table, clicked):
                return [(u, i) in clicked
                        for u, i in zip(table.users, table.items)]
        """, path="src/repro/data/foo.py") == ["row-iteration"]

    def test_flags_enumerate_over_labels(self):
        assert rules_fired("""
            def f(table):
                for row, label in enumerate(table.labels):
                    print(row, label)
        """, path="src/repro/data/foo.py") == ["row-iteration"]

    def test_sanctioned_in_io(self):
        source = """
            def save(table):
                for u, i in zip(table.users, table.items):
                    write(u, i)
        """
        assert rules_fired(source, path="src/repro/data/io.py") == []

    def test_out_of_scope_outside_data(self):
        assert rules_fired("""
            def f(table):
                for user in table.users:
                    print(user)
        """, path="src/repro/core/foo.py") == []

    def test_clean_vectorized_and_domain_iteration(self):
        # Vectorized column math and iteration over *domains* (a handful
        # of objects, not 1e8 rows) are both fine.
        assert rules_fired("""
            import numpy as np
            def f(dataset, table):
                total = float(table.labels.sum(dtype=np.float64))
                for domain in dataset.domains:
                    total += len(domain.train)
                return total
        """, path="src/repro/data/foo.py") == []


class TestDataMutation:
    def test_flags_augassign_outside_engine(self):
        assert rules_fired("""
            param.data -= lr * grad
        """, path="src/repro/frameworks/foo.py") == ["data-mutation"]

    def test_flags_subscript_assignment(self):
        assert rules_fired("""
            param.data[rows] = values
        """, path="src/repro/frameworks/foo.py") == ["data-mutation"]

    def test_flags_rebinding(self):
        assert rules_fired("""
            param.data = values.copy()
        """, path="src/repro/frameworks/foo.py") == ["data-mutation"]

    def test_sanctioned_in_optimizer(self):
        source = "param.data -= lr * grad\n"
        assert lint_source(source, "src/repro/nn/optim.py") == []

    def test_reading_data_is_fine(self):
        assert rules_fired("""
            value = param.data[rows] * 2
        """, path="src/repro/frameworks/foo.py") == []


class TestDenseMaterialization:
    def test_flags_to_dense_outside_sparse_paths(self):
        assert rules_fired("""
            dense = grad.to_dense()
        """, path="src/repro/frameworks/foo.py") == ["dense-grad-materialization"]

    def test_flags_np_add_at(self):
        assert rules_fired("""
            import numpy as np
            np.add.at(buf, idx, g)
        """, path="src/repro/frameworks/foo.py") == ["dense-grad-materialization"]

    def test_sanctioned_in_sparse_module(self):
        source = "dense = grad.to_dense()\n"
        assert lint_source(source, "src/repro/nn/sparse.py") == []


class TestEagerInnerLoop:
    EAGER_STEP = """
        def train_epoch(model, batches, optimizer):
            for batch in batches:
                loss = model.loss(batch)
                model.zero_grad()
                loss.backward()
                optimizer.step()
    """

    def test_flags_eager_step_in_core(self):
        assert rules_fired(
            self.EAGER_STEP, path="src/repro/core/foo.py"
        ) == ["eager-inner-loop"]

    def test_flags_eager_step_in_distributed(self):
        assert rules_fired(
            self.EAGER_STEP, path="src/repro/distributed/foo.py"
        ) == ["eager-inner-loop"]

    def test_out_of_scope_in_frameworks(self):
        assert rules_fired(
            self.EAGER_STEP, path="src/repro/frameworks/foo.py"
        ) == []

    def test_gradient_probe_without_step_is_fine(self):
        assert rules_fired("""
            def compute_loss_gradient(model, batch):
                loss = model.loss(batch)
                model.zero_grad()
                loss.backward()
                return loss.item()
        """, path="src/repro/core/foo.py") == []

    def test_executor_routed_step_is_fine(self):
        assert rules_fired("""
            def train_epoch(model, batches, optimizer, executor):
                for batch in batches:
                    executor.step(batch, optimizer)
        """, path="src/repro/core/foo.py") == []

    def test_waived_fallback(self):
        source = textwrap.dedent("""
            def train_epoch(model, batches, optimizer):
                for batch in batches:
                    # lint: allow[eager-inner-loop]
                    loss = model.loss(batch)
                    loss.backward()
                    optimizer.step()
        """)
        assert lint_source(source, "src/repro/core/foo.py") == []


class TestWaivers:
    def test_same_line_waiver(self):
        source = "dense = grad.to_dense()  # lint: allow[dense-grad-materialization]\n"
        assert lint_source(source, "src/repro/frameworks/foo.py") == []

    def test_preceding_line_waiver(self):
        source = (
            "# lint: allow[dense-grad-materialization]\n"
            "dense = grad.to_dense()\n"
        )
        assert lint_source(source, "src/repro/frameworks/foo.py") == []

    def test_waiver_for_other_rule_does_not_apply(self):
        source = "dense = grad.to_dense()  # lint: allow[raw-random]\n"
        assert [v.rule for v in lint_source(
            source, "src/repro/frameworks/foo.py"
        )] == ["dense-grad-materialization"]


class TestServingScope:
    """The serving subsystem is inside the repo-invariant perimeter."""

    def test_dtype_drift_fires_in_serving(self):
        # serve-path downcasts would break bit-parity with offline scoring
        assert rules_fired("""
            import numpy as np
            rows = table.astype(np.float32)
        """, path="src/repro/serving/embedding_cache.py") == ["dtype-drift"]

    def test_dtype_drift_clean_float64_in_serving(self):
        assert rules_fired("""
            import numpy as np
            rows = np.asarray(rows, dtype=np.float64)
        """, path="src/repro/serving/service.py") == []

    def test_raw_random_fires_in_serving(self):
        assert rules_fired("""
            import numpy as np
            stream = np.random.default_rng(0)
        """, path="src/repro/serving/bench.py") == ["raw-random"]

    def test_dense_materialization_fires_in_serving(self):
        assert rules_fired("""
            dense = grad.to_dense()
        """, path="src/repro/serving/service.py") == [
            "dense-grad-materialization"
        ]


class TestGradcheckCoverage:
    def make_tree(self, tmp_path, test_body):
        functional = tmp_path / "src" / "repro" / "nn" / "functional.py"
        functional.parent.mkdir(parents=True)
        functional.write_text(textwrap.dedent("""
            from .tensor import Tensor

            def covered(x):
                return Tensor._make(x.data, (x,), lambda g: (g,))

            def uncovered(x):
                return Tensor._make(x.data, (x,), lambda g: (g,))

            def not_a_primitive(x):
                return covered(x)
        """))
        tests = tmp_path / "tests" / "nn" / "test_gradcheck.py"
        tests.parent.mkdir(parents=True)
        tests.write_text(textwrap.dedent(test_body))
        return tmp_path

    def test_uncovered_primitive_is_flagged(self, tmp_path):
        root = self.make_tree(tmp_path, """
            def test_covered():
                check(lambda t: covered(t), x)
        """)
        violations, _ = lint_paths([root / "src"])
        assert [v.rule for v in violations] == ["gradcheck-coverage"]
        assert "uncovered" in violations[0].message

    def test_full_coverage_passes(self, tmp_path):
        root = self.make_tree(tmp_path, """
            import functional as F
            def test_all():
                check(lambda t: F.covered(t), x)
                check(lambda t: F.uncovered(t), x)
        """)
        violations, _ = lint_paths([root / "src"])
        assert violations == []


class TestDriver:
    def test_repo_src_is_clean(self):
        violations, files_checked = lint_paths([REPO_ROOT / "src"])
        assert violations == []
        assert files_checked > 50

    def test_main_exit_codes(self, tmp_path, capsys):
        assert main([str(REPO_ROOT / "src")]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "raw-random" in out

    def test_parse_error_is_reported(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        violations, _ = lint_paths([broken])
        assert [v.rule for v in violations] == ["parse-error"]

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
        violations, _ = lint_paths([bad], select={"dtype-drift"})
        assert violations == []

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.name in out


class TestStaleWaivers:
    BAD = "import numpy as np\nrng = np.random.default_rng(0)  # lint: allow[raw-random]\n"

    def test_used_waiver_is_not_flagged(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(self.BAD)
        violations, _ = lint_paths([path])
        assert violations == []

    def test_stale_waiver_is_flagged_with_fix_instruction(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # lint: allow[raw-random]\n")
        violations, _ = lint_paths([path])
        (stale,) = violations
        assert stale.rule == "stale-waiver"
        assert stale.line == 1
        assert "delete the comment" in stale.message

    def test_waiver_for_unknown_rule_is_stale(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # lint: allow[no-such-rule]\n")
        violations, _ = lint_paths([path])
        assert [v.rule for v in violations] == ["stale-waiver"]

    def test_docstring_mention_is_not_a_waiver(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text('"""Use ``# lint: allow[raw-random]`` to waive."""\n')
        violations, _ = lint_paths([path])
        assert violations == []

    def test_unselected_rule_waiver_is_not_judged(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(self.BAD)
        violations, _ = lint_paths([path], select={"dtype-drift", "stale-waiver"})
        assert violations == []

    def test_stale_audit_can_itself_be_ignored(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # lint: allow[raw-random]\n")
        violations, _ = lint_paths([path], ignore={"stale-waiver"})
        assert violations == []

    def test_main_lists_stale_waivers_for_fixing(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # lint: allow[raw-random]\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "stale waivers" in out
        assert f"{path}:1" in out


class TestExitCodes:
    BAD = "import numpy as np\nrng = np.random.default_rng(0)\n"

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_name_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("x = 1\n")
        assert main([str(path), "--select", "no-such-rule"]) == 2
        assert main([str(path), "--ignore", "no-such-rule"]) == 2

    def test_ignore_silences_findings(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert main([str(path), "--ignore", "raw-random"]) == 0

    def test_json_report_is_written(self, tmp_path):
        import json

        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        out = tmp_path / "report.json"
        assert main([str(path), "--json", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["summary"]["total"] == 1
        assert payload["summary"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "raw-random"

    def test_baseline_gates_only_new_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        assert main([str(path), "--write-baseline", str(baseline)]) == 0
        assert main([str(path), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out
        # A new *distinct* finding must gate (same-fingerprint repeats of
        # a baselined finding are tolerated by design).
        path.write_text(self.BAD + "import random\nalso = random.random()\n")
        assert main([str(path), "--baseline", str(baseline)]) == 1

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("x = 1\n")
        assert main([str(path), "--baseline", str(tmp_path / "nope.json")]) == 2

