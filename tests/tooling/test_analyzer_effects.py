"""Determinism/effect auditor: planted effects are detected, reachable
nondeterminism rolls up to the driver entry points with witness
chains, and the real runtime audits clean against the committed
baseline."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.tooling import analyze
from repro.tooling.analyzer import Baseline, ProjectIndex, audit, audit_paths

pytestmark = pytest.mark.analyzer

REPO_ROOT = Path(__file__).resolve().parents[2]


def audit_sources(**sources):
    index = ProjectIndex.from_sources({
        path: textwrap.dedent(source) for path, source in sources.items()
    })
    return audit(index)


def rules_of(findings):
    return {f.rule for f in findings}


class TestDirectEffects:
    def test_wall_clock_read(self):
        findings, _ = audit_sources(**{
            "src/repro/online/timing.py": """
                import time

                def lap():
                    return time.perf_counter()
            """,
        })
        (f,) = [f for f in findings if f.rule == "wall-clock"]
        assert f.symbol == "lap"
        assert "time.perf_counter" in f.message

    def test_unseeded_global_rng(self):
        findings, _ = audit_sources(**{
            "src/repro/online/draw.py": """
                import numpy as np

                def draw():
                    return np.random.rand(3)
            """,
        })
        assert "unseeded-rng" in rules_of(findings)

    def test_set_iteration_order(self):
        findings, _ = audit_sources(**{
            "src/repro/online/order.py": """
                def visit(items):
                    pending = set(items)
                    for item in pending:
                        yield item
                    return list({1, 2, 3})
            """,
        })
        ordered = [f for f in findings if f.rule == "iteration-order"]
        assert len(ordered) == 2  # the for-loop and the list() call

    def test_sorted_set_is_not_flagged(self):
        findings, _ = audit_sources(**{
            "src/repro/online/order.py": """
                def visit(items):
                    for item in sorted(set(items)):
                        yield item
            """,
        })
        assert "iteration-order" not in rules_of(findings)

    def test_module_global_mutation(self):
        findings, _ = audit_sources(**{
            "src/repro/online/registry.py": """
                SEEN = []

                def record(x):
                    SEEN.append(x)
            """,
        })
        (f,) = [f for f in findings if f.rule == "shared-state-mutation"]
        assert "SEEN" in f.message

    def test_local_mutation_is_not_flagged(self):
        findings, _ = audit_sources(**{
            "src/repro/online/registry.py": """
                def record(xs):
                    seen = []
                    seen.append(xs)
                    return seen
            """,
        })
        assert findings == []


class TestForkCapture:
    def test_rng_captured_across_fork_boundary(self):
        """The planted bug from the issue: a closure shipped to a worker
        process captures an RNG constructed in the parent."""
        findings, stats = audit_sources(**{
            "src/repro/distributed/cluster.py": """
                import multiprocessing as mp
                import random

                class SimulatedCluster:
                    def run(self, domains):
                        rng = random.Random(0)

                        def _worker(domain):
                            return rng.random() * domain

                        procs = [
                            mp.Process(target=_worker, args=(d,))
                            for d in domains
                        ]
                        for proc in procs:
                            proc.start()
            """,
        })
        (capture,) = [f for f in findings if f.rule == "fork-unsafe-capture"]
        assert "'rng'" in capture.message
        assert capture.symbol == "SimulatedCluster.run"
        rollups = [
            f for f in findings if f.rule == "entrypoint-nondeterminism"
        ]
        assert any("fork-unsafe-capture" in f.message for f in rollups)

    def test_rng_passed_by_seed_is_clean(self):
        findings, _ = audit_sources(**{
            "src/repro/distributed/cluster.py": """
                import multiprocessing as mp

                class SimulatedCluster:
                    def run(self, domains, seed):
                        def _worker(domain, worker_seed):
                            return worker_seed * domain

                        procs = [
                            mp.Process(target=_worker, args=(d, seed + i))
                            for i, d in enumerate(domains)
                        ]
                        for proc in procs:
                            proc.start()
            """,
        })
        assert findings == []


class TestInterprocedural:
    SOURCES = {
        "src/repro/distributed/cluster.py": """
            from .pool import drain

            class SimulatedCluster:
                def run(self, domains):
                    return drain(domains)
        """,
        "src/repro/distributed/pool.py": """
            def drain(domains):
                ready = set(domains)
                return [run(d) for d in ready]

            def run(domain):
                return domain
        """,
        "src/repro/online/trainer.py": """
            class IncrementalTrainer:
                def update(self, domains):
                    return [sorted(d) for d in domains]
        """,
    }

    def test_effects_propagate_to_entry_point_with_witness_chain(self):
        findings, stats = audit_sources(**self.SOURCES)
        summary = stats["entry_points"][
            "repro.distributed.cluster.SimulatedCluster.run"
        ]
        assert summary["iteration-order"] == "SimulatedCluster.run -> drain"
        rollups = [
            f for f in findings if f.rule == "entrypoint-nondeterminism"
        ]
        assert [f.symbol for f in rollups] == ["SimulatedCluster.run"]
        assert "SimulatedCluster.run -> drain" in rollups[0].message

    def test_clean_entry_point_gets_no_rollup(self):
        _, stats = audit_sources(**self.SOURCES)
        assert stats["entry_points"][
            "repro.online.trainer.IncrementalTrainer.update"
        ] == {}


class TestRealRuntime:
    def test_runtime_audits_clean_against_committed_baseline(self):
        """Acceptance: the determinism auditor runs clean over the actual
        training runtime — every finding is in analyzer_baseline.json."""
        findings, stats = audit_paths([
            REPO_ROOT / "src" / "repro" / "distributed",
            REPO_ROOT / "src" / "repro" / "online",
        ])
        baseline = Baseline.load(REPO_ROOT / "analyzer_baseline.json")
        new, known = baseline.split(findings)
        assert new == [], [f.render() for f in new]
        assert len(known) == len(findings)
        assert stats["functions"] > 50
        assert set(stats["entry_points"]) == {
            "repro.distributed.cluster.SimulatedCluster.run",
            "repro.online.trainer.IncrementalTrainer.update",
        }

    def test_baseline_has_no_stale_entries(self):
        findings, _ = audit_paths([
            REPO_ROOT / "src" / "repro" / "distributed",
            REPO_ROOT / "src" / "repro" / "online",
        ])
        baseline = Baseline.load(REPO_ROOT / "analyzer_baseline.json")
        assert baseline.stale_entries(findings) == []

    def test_analyze_runs_from_any_working_directory(
        self, monkeypatch, tmp_path, capsys
    ):
        """The default audit paths resolve from the package directory, and
        findings stay repo-relative, so the committed baseline matches."""
        monkeypatch.chdir(tmp_path)
        baseline = REPO_ROOT / "analyzer_baseline.json"
        assert analyze.main(["--baseline", str(baseline)]) == 0
        assert "0 finding(s) — ok" in capsys.readouterr().out


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
