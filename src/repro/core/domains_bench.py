"""Domain-axis scaling benchmark: train → publish → serve at 1k-50k domains.

The paper's production deployment spans 69,102 domains; this bench
measures how far one machine gets along that axis with each parameter
backend.  Per ``(n_domains, backend)`` cell it runs the full pipeline —
build a heavy-tailed ``taobao_sim`` dataset, train a scaled-down MAMDR
pass (DN + cluster-gated DR), publish a copy-on-write snapshot, serve and
parity-check a sample of domains — and records wall-times, resettable
peak memory (``tracemalloc``, since ``ru_maxrss`` only ever grows) and
the delta-plane footprint.

``python -m repro.cli domains-bench`` writes the scaling curve to
``BENCH_domains.json`` (same journal conventions as the serve/traffic
benches).  The dense backend is capped by ``--dense-limit`` — beyond a
few thousand domains its O(n_domains) delta dicts and DR rounds are
exactly the wall the clustered-sharded backend removes.
"""

from __future__ import annotations

import time
import tracemalloc

from ..data.batching import sample_batch
from ..data.benchmarks import taobao_sim
from ..models import build_model
from ..serving.service import ServingService
from ..utils.journal import merge_cells, update_journal
from ..utils.seeding import spawn_rng
from .clustering import plan_clusters
from .config import TrainConfig
from .mamdr import train_space
from .param_space import ClusteredDomainStore, DenseDomainStore

__all__ = [
    "DEFAULT_BENCH_PATH",
    "make_domains_dataset",
    "bench_cell",
    "run_domains_bench",
    "render_domains_bench",
    "write_bench_record",
]

DEFAULT_BENCH_PATH = "BENCH_domains.json"

#: deliberately tiny training budget: the bench measures how cost *scales
#: with n_domains*, not model quality, so one epoch of one DN round plus
#: one DR step per group is plenty of arithmetic per domain visit.
BENCH_CONFIG = TrainConfig(
    epochs=1, batch_size=64, inner_steps=1, dr_steps=1, sample_k=1,
    dn_rounds=1,
)


def make_domains_dataset(n_domains, seed=0):
    """A sparse-tail ``taobao_sim`` sized for huge domain counts.

    Overrides the preset's per-domain floor (18 samples instead of 40 —
    the least that guarantees >= 3 interactions of each label class for
    the stratified 3-way split at the preset's lowest CTR) and pins the
    user/item universes so the bench's memory curve measures the *domain*
    axis, not incidental universe growth.
    """
    return taobao_sim(
        n_domains,
        seed=seed,
        total_samples=12 * n_domains,
        n_users=2000,
        n_items=1000,
        min_domain_samples=18,
        name=f"domains{n_domains}_sim",
    )


def _make_store(backend, model, dataset, clusters, seed):
    """The ready store — built here so its allocation is timed as space
    construction, not as training — and its cluster plan, if any."""
    if backend == "dense":
        return DenseDomainStore(model.state_dict(), dataset.n_domains), None
    plan = plan_clusters(
        dataset, n_clusters=clusters, seed=seed,
        head_fraction=min(0.01, 100 / max(dataset.n_domains, 1)),
    )
    return ClusteredDomainStore(model.state_dict(), plan), plan


def _serve_sample(service, space, dataset, rng, sample_domains=32,
                  batch_rows=16):
    """Serve a spread of domains; returns (n_scored, parity_ok)."""
    import numpy as np

    probe = build_model("mlp", dataset, seed=0)
    step = max(1, dataset.n_domains // sample_domains)
    scored, parity = 0, True
    for domain_index in range(0, dataset.n_domains, step):
        table = dataset.domain(domain_index).test
        batch = sample_batch(
            table, domain_index, min(batch_rows, len(table)), rng
        )
        served = service.predict_batch(batch.users, batch.items, domain_index)
        space.load_combined(probe, domain_index)
        if not np.array_equal(served, probe.predict(batch)):
            parity = False
        scored += 1
    return scored, parity


def bench_cell(n_domains, backend, clusters=64, seed=0, verbose=False):
    """One (n_domains, backend) measurement: train → publish → serve."""

    def note(message):
        if verbose:
            print(f"[domains-bench] {message}", flush=True)

    rng = spawn_rng(seed, "domains-bench", backend, n_domains)
    result = {"n_domains": n_domains, "backend": backend}

    tracemalloc.start()
    start = time.perf_counter()
    dataset = make_domains_dataset(n_domains, seed=seed)
    result["build_dataset_s"] = round(time.perf_counter() - start, 4)
    result["total_interactions"] = int(dataset.total_interactions())
    note(f"{backend}/{n_domains}: dataset built "
         f"({result['total_interactions']} interactions)")

    start = time.perf_counter()
    model = build_model("mlp", dataset, seed=seed)
    store, plan = _make_store(backend, model, dataset, clusters, seed)
    result["build_space_s"] = round(time.perf_counter() - start, 4)
    result["delta_plane_mb"] = round(store.nbytes() / 2**20, 3)
    result["n_groups"] = len(store.groups())
    if plan is not None:
        result["cluster_plan"] = plan.summary()

    start = time.perf_counter()
    space = train_space(model, dataset, BENCH_CONFIG, rng, store=store)
    result["train_s"] = round(time.perf_counter() - start, 4)
    note(f"{backend}/{n_domains}: trained {result['n_groups']} groups "
         f"in {result['train_s']}s")

    start = time.perf_counter()
    service = ServingService(build_model("mlp", dataset, seed=seed))
    snapshot = service.publish(space, dataset=dataset)
    result["publish_s"] = round(time.perf_counter() - start, 4)
    stats = snapshot.cow_stats()
    result["snapshot_unique_states"] = stats["unique_states"]
    result["snapshot_copied_mb"] = round(stats["copied_bytes"] / 2**20, 3)

    start = time.perf_counter()
    scored, parity = _serve_sample(service, space, dataset, rng)
    result["serve_s"] = round(time.perf_counter() - start, 4)
    result["served_domains"] = scored
    result["serve_parity"] = parity

    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    result["peak_rss_mb"] = round(peak / 2**20, 3)
    result["total_s"] = round(
        result["build_dataset_s"] + result["build_space_s"]
        + result["train_s"] + result["publish_s"] + result["serve_s"], 4,
    )
    note(f"{backend}/{n_domains}: total {result['total_s']}s, "
         f"peak {result['peak_rss_mb']} MB")
    return result


def run_domains_bench(domain_counts=(1000, 5000, 10000), clusters=64,
                      dense_limit=10000, seed=0, verbose=False):
    """The scaling curve: every count with the clustered backend, counts
    up to ``dense_limit`` with the dense one (its per-domain storage and
    loops stop being affordable long before the clustered backend's)."""
    cells = []
    for n_domains in domain_counts:
        if n_domains <= dense_limit:
            cells.append(bench_cell(
                n_domains, "dense", clusters=clusters, seed=seed,
                verbose=verbose,
            ))
        cells.append(bench_cell(
            n_domains, "clustered", clusters=clusters, seed=seed,
            verbose=verbose,
        ))
    return {
        "settings": {
            "domain_counts": list(domain_counts),
            "clusters": clusters,
            "dense_limit": dense_limit,
            "seed": seed,
            "config": {
                "epochs": BENCH_CONFIG.epochs,
                "batch_size": BENCH_CONFIG.batch_size,
                "inner_steps": BENCH_CONFIG.inner_steps,
                "dr_steps": BENCH_CONFIG.dr_steps,
                "sample_k": BENCH_CONFIG.sample_k,
                "dn_rounds": BENCH_CONFIG.dn_rounds,
            },
        },
        "cells": cells,
    }


def render_domains_bench(record):
    """Human-readable table of the scaling curve."""
    lines = [
        "domains-bench (train -> publish -> serve per cell)",
        f"  clusters={record['settings']['clusters']} "
        f"dense_limit={record['settings']['dense_limit']} "
        f"seed={record['settings']['seed']}",
        "",
        f"  {'n_domains':>9}  {'backend':<9}  {'groups':>7}  "
        f"{'train_s':>8}  {'total_s':>8}  {'peak_MB':>8}  "
        f"{'delta_MB':>8}  parity",
    ]
    for cell in record["cells"]:
        lines.append(
            f"  {cell['n_domains']:>9}  {cell['backend']:<9}  "
            f"{cell['n_groups']:>7}  {cell['train_s']:>8.2f}  "
            f"{cell['total_s']:>8.2f}  {cell['peak_rss_mb']:>8.1f}  "
            f"{cell['delta_plane_mb']:>8.1f}  "
            f"{'ok' if cell['serve_parity'] else 'MISMATCH'}"
        )
    return "\n".join(lines)


def write_bench_record(record, path=DEFAULT_BENCH_PATH):
    """Merge ``record`` into the domains benchmark journal at ``path``."""
    return update_journal(path, "domains_bench", merge_cells(
        record, lambda cell: (cell["n_domains"], cell["backend"])
    ))
