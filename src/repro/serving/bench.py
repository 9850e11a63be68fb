"""The serve-bench harness: train → publish → replay → report.

Trains a small MAMDR parameter space on a synthetic multi-domain dataset,
publishes it to a :class:`~repro.serving.snapshots.SnapshotStore`, replays
a heavy-tailed request stream through the micro-batcher at several
``max_batch_size`` settings, and appends QPS / p50 / p99 per setting to
``BENCH_serving.json``.  A bit-parity probe (serving path vs. offline
``load_combined`` + forward, before and after a hot reload) runs inside the
bench so a regression shows up as ``"parity": false`` in the record, not as
silently wrong latencies.

Run via ``python -m repro.cli serve-bench`` or the ``benchmarks/serving``
pytest wrappers.
"""

from __future__ import annotations

from ..core import TrainConfig, train_space
from ..data import DomainSpec, SyntheticConfig, generate_dataset, sample_batch
from ..models import build_model
from ..utils.journal import update_journal
from ..utils.seeding import spawn_rng
from ..utils.tables import format_table
from .batcher import BatchingPolicy
from .service import ServingService

__all__ = ["run_serve_bench", "render_serve_bench", "write_bench_record"]

DEFAULT_BENCH_PATH = "BENCH_serving.json"


def make_serving_dataset(n_domains=5, seed=1):
    """A heavy-tailed synthetic multi-domain dataset for the bench."""
    base_sizes = (900, 450, 220, 120, 70)
    specs = tuple(
        DomainSpec(
            f"S{i}", base_sizes[i % len(base_sizes)], 0.25 + 0.04 * i
        )
        for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name=f"serving_{n_domains}",
        domains=specs,
        n_users=400,
        n_items=200,
        latent_dim=8,
        feature_mode="trainable",
        feature_dim=10,
        seed=seed,
    ))


def bench_setup(session, seed, n_domains, default_config):
    """``(seed, dataset, model, train config)`` of a serving/traffic bench.

    A ``session`` (:class:`repro.train.SessionConfig`) supplies the model
    architecture, seed and training hyper-parameters; the dataset is the
    benches' own either way.
    """
    if session is None:
        dataset = make_serving_dataset(n_domains=n_domains, seed=seed + 1)
        model = build_model("mlp", dataset, seed=seed)
        return seed, dataset, model, default_config
    dataset = make_serving_dataset(n_domains=n_domains, seed=session.seed + 1)
    model = build_model(session.model, dataset,
                        seed=session.effective_model_seed,
                        **session.model_kwargs)
    return session.seed, dataset, model, session.train


def bench_train_rng(seed, dataset):
    """The RNG stream the serving/traffic benches train their spaces under
    (they publish from the *space* — θ_S + deltas — so copy-on-write
    materialization has real shared structure to exploit)."""
    return spawn_rng(seed, "serve-bench", "train", dataset.name)


def _heavy_tailed_probs(n, exponent=1.1):
    """Zipf-style popularity over ``n`` ranks: p(r) ∝ (r + 1)^-exponent."""
    weights = [(rank + 1) ** -exponent for rank in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def make_request_stream(dataset, n_requests, seed=0):
    """(users, items, domains) arrays with heavy-tailed popularity.

    Domains, users and items are all zipf-weighted — a few hot domains and
    head ids dominate, which is exactly the regime the static cache tier
    is built for.
    """
    import numpy as np

    rng = spawn_rng(seed, "serve-bench", "stream")
    domains = rng.choice(
        dataset.n_domains, size=n_requests,
        p=_heavy_tailed_probs(dataset.n_domains),
    )
    users = rng.choice(
        dataset.n_users, size=n_requests,
        p=_heavy_tailed_probs(dataset.n_users),
    )
    items = rng.choice(
        dataset.n_items, size=n_requests,
        p=_heavy_tailed_probs(dataset.n_items),
    )
    return (
        users.astype(np.int64), items.astype(np.int64),
        domains.astype(np.int64),
    )


def check_parity(service, space, dataset, seed=0, sample_size=32):
    """True iff serving scores are bit-identical to offline scoring."""
    import numpy as np

    rng = spawn_rng(seed, "serve-bench", "parity")
    offline_model = build_model("mlp", dataset, seed=seed)
    for domain_index in range(dataset.n_domains):
        table = dataset.domain(domain_index).test
        batch = sample_batch(
            table, domain_index, min(sample_size, len(table)), rng
        )
        served = service.predict_batch(batch.users, batch.items, domain_index)
        space.load_combined(offline_model, domain_index)
        offline = offline_model.predict(batch)
        if not np.array_equal(served, offline):
            return False
    return True


def run_serve_bench(batch_sizes=(1, 8, 32), n_requests=1500, seed=0,
                    epochs=2, n_domains=5, verbose=False, session=None):
    """Train, publish, replay; returns the JSON-ready results dict.

    ``session`` may be a :class:`repro.train.SessionConfig` (the unified
    config file the CLI's ``--config`` loads); it then supplies the model
    architecture, seed and training hyper-parameters, while the bench
    keeps its own heavy-tailed serving dataset and request stream.
    """
    import time

    seed, dataset, model, config = bench_setup(
        session, seed, n_domains,
        TrainConfig(epochs=epochs, batch_size=64, inner_steps=4, dr_steps=2,
                    sample_k=1),
    )
    space = train_space(model, dataset, config,
                        bench_train_rng(seed, dataset))

    users, items, domains = make_request_stream(dataset, n_requests, seed=seed)
    results = {}
    for batch_size in batch_sizes:
        service = ServingService(
            model,
            policy=BatchingPolicy(max_batch_size=batch_size, max_wait_us=500.0),
        )
        snapshot = service.publish(space, dataset=dataset)
        parity_before = check_parity(service, space, dataset, seed=seed)
        service.reset_stats()

        start = time.perf_counter()
        for position in range(n_requests):
            service.submit(
                users[position], items[position], domains[position]
            )
            if position % 16 == 15:
                service.poll()
        service.drain()
        elapsed = time.perf_counter() - start

        # Hot reload mid-service: republish and require parity immediately.
        reloaded = service.publish(space, dataset=dataset)
        parity_after = check_parity(service, space, dataset, seed=seed)

        stats = service.stats()
        latency = stats["latency"]
        cache = stats["embedding_cache"]
        hit_rates = [entry["hit_rate"] for entry in cache.values()]
        results[f"bs={batch_size}"] = {
            "max_batch_size": batch_size,
            "requests": n_requests,
            "elapsed_seconds": elapsed,
            "qps": n_requests / elapsed if elapsed > 0 else 0.0,
            "p50_ms": latency.get("p50_ms"),
            "p95_ms": latency.get("p95_ms"),
            "p99_ms": latency.get("p99_ms"),
            "mean_batch_size": stats["batcher"]["mean_batch_size"],
            "cache_hit_rate": (
                sum(hit_rates) / len(hit_rates) if hit_rates else None
            ),
            "snapshot_version": reloaded.version,
            "published_version": snapshot.version,
            "parity": bool(parity_before and parity_after),
        }
        if verbose:
            row = results[f"bs={batch_size}"]
            print(
                f"  bs={batch_size:<3d} qps={row['qps']:9.1f} "
                f"p50={row['p50_ms']:.3f}ms p99={row['p99_ms']:.3f}ms "
                f"parity={row['parity']}"
            )
    return {
        "dataset": dataset.name,
        "n_domains": dataset.n_domains,
        "n_requests": n_requests,
        "seed": seed,
        "settings": results,
    }


def render_serve_bench(record):
    """Human-readable table of one serve-bench record."""
    rows = [
        [
            key,
            f"{entry['qps']:.1f}",
            f"{entry['p50_ms']:.3f}",
            f"{entry['p99_ms']:.3f}",
            f"{entry['mean_batch_size']:.1f}",
            "-" if entry["cache_hit_rate"] is None
            else f"{entry['cache_hit_rate']:.3f}",
            "ok" if entry["parity"] else "FAIL",
        ]
        for key, entry in record["settings"].items()
    ]
    return format_table(
        ["Setting", "QPS", "p50 ms", "p99 ms", "Batch", "Hit rate", "Parity"],
        rows,
        title=f"serve-bench on {record['dataset']} "
              f"({record['n_requests']} requests)",
    )


def write_bench_record(record, path=DEFAULT_BENCH_PATH):
    """Merge ``record`` into the serving benchmark journal at ``path``."""
    return update_journal(path, "serve_bench", lambda entry: {
        **entry, **record["settings"],
        "dataset": record["dataset"], "n_requests": record["n_requests"],
    })
