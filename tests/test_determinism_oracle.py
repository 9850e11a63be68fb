"""Determinism oracle: same seed ⇒ same bits, checked by running the code.

One seeded scenario — the 3-domain ``mlp`` with trainable embeddings of
``tests/core/test_algorithm3_single_source.py``, reused as it stands —
runs through every seeded training entry point in two child processes
at once.  The children differ in ``PYTHONHASHSEED`` and in the seed of
the global ``np.random`` / ``random`` state, and each runs every entry
point twice, from fresh objects.  Per entry point three checks must hold:

``repeat``
    the two runs inside one child give the same digest;
``children``
    the two children agree;
``pinned``
    both children equal the literal in :data:`PINNED`.

The plant tests show what the oracle catches.  Each plant is a runtime
bug of one effect kind, monkeypatched into the DR step
(``repro.core.regularization``) inside the children only — ``src/``
carries no hook for it.  Every entry point runs DR, so every plant is on
every path:

* ``unseeded_rng`` — the helper draw comes from the global ``np.random``;
* ``str_set_walk`` — the helper draw walks a ``set`` of str keys, whose
  order follows ``PYTHONHASHSEED``;
* ``clock_fed`` — Eq. 8's step size γ is annealed by elapsed wall time;
* ``global_counter`` — a module-global call counter flips the helper of
  every call after the first;
* ``telemetry_clock`` — a clock read that feeds no result; the oracle
  must stay green under it.

The 3-domain scenario draws one helper from two candidates, and the
walk order of two single-digit str keys can coincide under both hash
seeds, so its ``str_set_walk`` plant has to salt its keys.  A second,
wider scenario (:class:`WideScenario`: six domains, ``sample_k=2``, its
own literals in :data:`WIDE_PINNED`) makes every DR round walk five keys
and keep two; it catches the plain, unsalted walk
(``str_set_walk_unsalted``) on its ``children`` check.

Run it with ``PYTHONPATH=src python -m pytest tests/test_determinism_oracle.py``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import TrainConfig
from repro.models import build_model
from repro.online import EventStream, IncrementalTrainer, StreamConfig
from tests.core.test_algorithm3_single_source import digest, space_digest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: (PYTHONHASHSEED, global np.random / random seed) of the two children.
CHILDREN = ((0, 0), (1, 1))

PINNED = {
    "train_space":
        "af6fef1476aa87e50d7382792569be5276532ec83795a649b9c5439c3d44ec7d",
    "mamdr_fit":
        "b63b44d439cf4cdd12ae6d35f7d845892bc67d9f14a0214084d2b1d371def88a",
    "update_local":
        "129452d9a337dbb9783cb805c84ee50ca75a811104bcdb15c34364c7cb3c2ad6",
    "update_cluster":
        "acde91911cc911006c099e6d34a1bbcc73279318545d5815e480e21f0f3149fd",
    "cluster_sync":
        "fa6f3dbfa00f141d32d38abd807ad81e53743281d86d6bb1356e5805c6712fd8",
    "cluster_async":
        "dfbe1117e0143130c1f536f98632a1bc5f921ccf2ecd30d2d330db4e0a0dc256",
}
ENTRY_POINTS = tuple(PINNED)

WIDE_PINNED = {
    "train_space":
        "e950783d02d803e1e960bbffc1c170e7116d0291d91fa425825fdd87eed54d7f",
    "mamdr_fit":
        "dffa927e05ccb2f57ac96181a86afa8219f9ee1bfa48a9f2c6dd576afb635b4f",
    "update_local":
        "a20cad810a299c65218e9d9beb74d1f9b9998229a25e482bc96ecb3a57df9e2d",
}


class WideScenario:
    """Six domains and ``sample_k=2``: enough helper-set entropy for a
    hash-order walk to show between the two children.  Built like the
    3-domain scenario, with the attributes ``entry_points`` reads."""

    SEED = 3
    N_DOMAINS = 6
    CONFIG = TrainConfig(epochs=1, batch_size=32, inner_steps=2, dr_steps=1,
                         sample_k=2)

    @staticmethod
    def make_stream():
        return EventStream(StreamConfig(
            n_domains=WideScenario.N_DOMAINS, n_users=150, n_items=90,
            latent_dim=6, n_windows=3, window_events=360, drift_rate=0.2,
            seed=0,
        ))

    @staticmethod
    def make_model(stream):
        return build_model("mlp", stream.skeleton_dataset(), seed=0)

    @staticmethod
    def make_trainer(stream, **overrides):
        trainer = IncrementalTrainer(
            WideScenario.make_model(stream), WideScenario.N_DOMAINS,
            WideScenario.CONFIG, replay_capacity=400, holdout_capacity=120,
            n_users=stream.config.n_users, n_items=stream.config.n_items,
            seed=WideScenario.SEED, **overrides,
        )
        trainer.ingest(stream.window(0))
        trainer.ingest(stream.window(1))
        return trainer

    digest = staticmethod(digest)
    space_digest = staticmethod(space_digest)

    @staticmethod
    def bank_digest(bank):
        return WideScenario.digest(
            [bank.default_state]
            + [bank.state_for(d) for d in range(WideScenario.N_DOMAINS)])


def load_scenario(name):
    """``(scenario, pinned)``: the builders ``entry_points`` reads, and
    the literals of the entry points this scenario runs."""
    if name == "wide":
        return WideScenario, WIDE_PINNED
    import tests.core.test_algorithm3_single_source as alg3

    return alg3, PINNED


# ----------------------------------------------------------------------
# The scenario's entry points (child side)
# ----------------------------------------------------------------------
def entry_points(scenario, stream, dataset):
    """Name → zero-argument callable that trains from fresh objects and
    returns the SHA-256 digest of the resulting states."""
    from repro.core import MAMDR, train_space
    from repro.distributed import SimulatedCluster
    from repro.utils.seeding import spawn_rng

    def update(**overrides):
        result = scenario.make_trainer(stream, **overrides).update(key=5)
        return scenario.digest([result.default_state] + [
            result.states[d] for d in range(scenario.N_DOMAINS)
        ])

    def cluster(mode):
        bank = SimulatedCluster(n_workers=2, mode=mode).run(
            scenario.cluster_factory(stream), dataset, scenario.CONFIG,
            seed=scenario.SEED, use_dr=True,
        )
        return scenario.bank_digest(bank)

    return {
        "train_space": lambda: scenario.space_digest(train_space(
            scenario.make_model(stream), dataset, scenario.CONFIG,
            spawn_rng(scenario.SEED, "scenario"),
        )),
        "mamdr_fit": lambda: scenario.bank_digest(MAMDR().fit(
            scenario.make_model(stream), dataset, scenario.CONFIG, seed=scenario.SEED,
        )),
        "update_local": update,
        "update_cluster": lambda: update(
            backend="cluster", n_workers=2,
            replica_factory=lambda: scenario.make_model(stream),
        ),
        "cluster_sync": lambda: cluster("sync"),
        "cluster_async": lambda: cluster("async"),
    }


# ----------------------------------------------------------------------
# Plants (applied inside a child only)
# ----------------------------------------------------------------------
def plant_unseeded_rng(monkeypatch, regularization):
    def sample(rng, n_domains, target, k):
        others = [d for d in range(n_domains) if d != target]
        return list(np.random.permutation(others)[:k])

    monkeypatch.setattr(regularization, "sample_helper_domains", sample)


def plant_str_set_walk(monkeypatch, regularization):
    # Two keys per call give one coin flip per target, and those few can
    # coincide under two hash seeds; a seeded salt makes every call's
    # keys, and so its walk order, new.
    def sample(rng, n_domains, target, k):
        salt = int(rng.integers(1 << 30))
        keys = {f"{salt}/{d}" for d in range(n_domains) if d != target}
        return [int(key.split("/")[1]) for key in keys][:k]

    monkeypatch.setattr(regularization, "sample_helper_domains", sample)


def plant_clock_fed(monkeypatch, regularization):
    start = time.perf_counter()
    interpolate = regularization.state_interpolate_

    def annealed(origin, target, step):
        return interpolate(origin, target,
                           step / (1.0 + time.perf_counter() - start))

    monkeypatch.setattr(regularization, "state_interpolate_", annealed)


def plant_global_counter(monkeypatch, regularization):
    sample = regularization.sample_helper_domains
    monkeypatch.setattr(regularization, "_helper_calls", 0, raising=False)

    def counted(rng, n_domains, target, k):
        regularization._helper_calls += 1
        helpers = sample(rng, n_domains, target, k)
        if regularization._helper_calls > 1:
            helpers = [d for d in range(n_domains)
                       if d != target and d not in helpers][:k]
        return helpers

    monkeypatch.setattr(regularization, "sample_helper_domains", counted)


def plant_telemetry_clock(monkeypatch, regularization):
    sample = regularization.sample_helper_domains
    timings = []

    def timed(rng, n_domains, target, k):
        started = time.perf_counter()
        helpers = sample(rng, n_domains, target, k)
        timings.append(time.perf_counter() - started)
        return helpers

    monkeypatch.setattr(regularization, "sample_helper_domains", timed)


def plant_str_set_walk_unsalted(monkeypatch, regularization):
    def sample(rng, n_domains, target, k):
        keys = {str(d) for d in range(n_domains) if d != target}
        return [int(key) for key in keys][:k]

    monkeypatch.setattr(regularization, "sample_helper_domains", sample)


PLANTS = {
    "unseeded_rng": plant_unseeded_rng,
    "str_set_walk": plant_str_set_walk,
    "clock_fed": plant_clock_fed,
    "global_counter": plant_global_counter,
    "telemetry_clock": plant_telemetry_clock,
}
#: Plants run on the wide scenario only.
WIDE_PLANTS = {
    "str_set_walk_unsalted": plant_str_set_walk_unsalted,
}


def child_main(global_seed, segments, scenario_name="three"):
    """Run every pinned entry point of a scenario twice per segment;
    print one JSON line.

    A segment is ``"clean"`` or a plant name.  The clean segment runs
    first, in a process no plant has touched yet; each segment reseeds
    the global generators, so no segment inherits another's draws.
    """
    import repro.core.regularization as regularization

    scenario, pinned = load_scenario(scenario_name)
    stream = scenario.make_stream()
    dataset = scenario.make_trainer(stream).window_dataset()
    report = {}
    for segment in segments:
        random.seed(global_seed)
        np.random.seed(global_seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            if segment != "clean":
                {**PLANTS, **WIDE_PLANTS}[segment](monkeypatch,
                                                   regularization)
            runs = entry_points(scenario, stream, dataset)
            digests = {name: [_run(runs[name]), _run(runs[name])]
                       for name in pinned}
        report[segment] = digests
    print(json.dumps(report))


def _run(entry_point):
    try:
        return entry_point()
    except Exception as error:  # reported as a digest that pins nothing
        return f"raised {type(error).__name__}: {error}"


# ----------------------------------------------------------------------
# The oracle (parent side)
# ----------------------------------------------------------------------
def run_children(segments, scenario_name="three"):
    """Both children's reports, run concurrently: ``[report_0, report_1]``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import sys, tests.test_determinism_oracle as oracle; "
            "oracle.child_main(int(sys.argv[1]), sys.argv[2].split(','), "
            "sys.argv[3])")

    def child(seeds):
        hash_seed, global_seed = seeds
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": os.pathsep.join((src, str(REPO_ROOT)))}
        result = subprocess.run(
            [sys.executable, "-c", code, str(global_seed), ",".join(segments),
             scenario_name],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    with ThreadPoolExecutor(len(CHILDREN)) as pool:
        return list(pool.map(child, CHILDREN))


def oracle_failures(reports, pinned=PINNED):
    """``(entry point, check, message)`` for every failed check.

    ``reports`` holds one ``{entry point: [first, second]}`` per child.
    """
    failures = []
    for name in pinned:
        runs = [report[name] for report in reports]
        for (hash_seed, global_seed), (first, second) in zip(CHILDREN, runs):
            where = f"PYTHONHASHSEED={hash_seed}, global seed {global_seed}"
            if first != second:
                failures.append((name, "repeat", (
                    f"{name} [repeat]: in-process runs differ under {where}: "
                    f"{first[:16]} != {second[:16]}")))
            if first != pinned[name]:
                failures.append((name, "pinned", (
                    f"{name} [pinned]: digest {first[:16]} under {where} "
                    f"is not the pinned {pinned[name][:16]}")))
        if runs[0][0] != runs[1][0]:
            failures.append((name, "children", (
                f"{name} [children]: the two children disagree: "
                f"{runs[0][0][:16]} != {runs[1][0][:16]}")))
    return failures


@pytest.fixture(scope="module")
def reports():
    children = run_children(["clean", *PLANTS])
    return {segment: [child[segment] for child in children]
            for segment in children[0]}


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_is_deterministic(reports, entry_point):
    failed = [message for name, _, message in oracle_failures(reports["clean"])
              if name == entry_point]
    assert not failed, "\n".join(failed)


def checks_failed(reports, plant, pinned=PINNED):
    failures = oracle_failures(reports[plant], pinned)
    return {(name, check) for name, check, _ in failures}


def test_unseeded_rng_is_caught(reports):
    failed = checks_failed(reports, "unseeded_rng")
    assert {check for _, check in failed} >= {"repeat", "children"}


def test_str_set_walk_is_caught_only_across_hash_seeds(reports):
    # Inside one process the hash order is fixed, so only the second
    # child, under another PYTHONHASHSEED, can see the walk.
    failed = checks_failed(reports, "str_set_walk")
    assert {check for _, check in failed} >= {"children"}
    assert not {name for name, check in failed if check == "repeat"}


def test_clock_fed_result_is_caught_at_every_entry_point(reports):
    failed = checks_failed(reports, "clock_fed")
    assert {name for name, check in failed if check == "repeat"} \
        == set(ENTRY_POINTS)


def test_global_counter_is_caught_at_the_first_call_site(reports):
    # The counter perturbs every call after the first, so only the first
    # entry point's two runs see different histories.
    failed = checks_failed(reports, "global_counter")
    assert ("train_space", "repeat") in failed


def test_telemetry_clock_read_is_not_a_failure(reports):
    assert oracle_failures(reports["telemetry_clock"]) == []


# ----------------------------------------------------------------------
# The wide scenario
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wide_reports():
    children = run_children(["clean", *WIDE_PLANTS], "wide")
    return {segment: [child[segment] for child in children]
            for segment in children[0]}


@pytest.mark.parametrize("entry_point", tuple(WIDE_PINNED))
def test_wide_entry_point_is_deterministic(wide_reports, entry_point):
    failed = [message for name, _, message
              in oracle_failures(wide_reports["clean"], WIDE_PINNED)
              if name == entry_point]
    assert not failed, "\n".join(failed)


def test_unsalted_str_set_walk_is_caught_by_the_children_check(wide_reports):
    failed = checks_failed(wide_reports, "str_set_walk_unsalted",
                           WIDE_PINNED)
    assert {name for name, check in failed if check == "children"} \
        == set(WIDE_PINNED)
    assert not {name for name, check in failed if check == "repeat"}
