"""Onboarding a new domain without retraining the platform.

The Taobao MDR system (Figure 2) adds new domains continuously: "the
system would automatically increase specific parameters for this new
domain".  This example trains MAMDR on the first 9 domains of the
Taobao-10 analogue, then onboards the 10th domain by training only its
specific delta θ_new with Domain Regularization against the frozen shared
state — and compares against serving the new domain with θ_S alone.

Run:  python examples/onboard_new_domain.py
"""

from repro.core import MAMDR, TrainConfig, extend_bank
from repro.data import MultiDomainDataset, taobao_sim
from repro.metrics import evaluate_bank
from repro.models import build_model


def main():
    full = taobao_sim(10, scale=1.0, seed=1)
    new_index = full.n_domains - 1
    existing = MultiDomainDataset(
        full.name, full.domains[:new_index],
        full.n_users, full.n_items,
        user_features=full.user_features, item_features=full.item_features,
    )
    config = TrainConfig(epochs=6)

    print(f"Training MAMDR on {existing.n_domains} existing domains ...")
    model = build_model("mlp", full, seed=1)
    bank = MAMDR().fit(model, existing, config, seed=1)

    new_domain = full.domain(new_index)
    print(f"Onboarding new domain {new_domain.name!r} "
          f"({new_domain.num_samples} interactions) ...")
    extended = extend_bank(bank, model, full, new_index, config=config, seed=1)

    report = evaluate_bank(extended, full, method="extended bank")
    shared_only = evaluate_bank(bank, full, method="shared fallback")

    print(f"\nnew domain {new_domain.name}:")
    print(f"  served with shared θ_S only : "
          f"AUC {shared_only.per_domain[new_domain.name]:.4f}")
    print(f"  served with onboarded Θ_new : "
          f"AUC {report.per_domain[new_domain.name]:.4f}")
    mean_existing = sum(
        report.per_domain[d.name] for d in existing.domains
    ) / existing.n_domains
    print(f"  existing domains (unchanged): mean AUC {mean_existing:.4f}")


if __name__ == "__main__":
    main()
