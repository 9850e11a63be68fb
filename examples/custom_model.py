"""Model agnosticism: plug YOUR OWN model into MAMDR.

The paper's headline property is that MAMDR wraps *any* model structure.
This example defines a custom two-tower CTR model (per-field towers plus an
explicit interaction head) that the library has never seen, and trains it
with MAMDR unchanged — the framework only touches the model through
``loss``, ``state_dict`` and ``load_state_dict``.

Run:  python examples/custom_model.py
"""

import numpy as np

from repro.core import MAMDR, TrainConfig
from repro.data import amazon6_sim
from repro.frameworks import Alternate
from repro.metrics import evaluate_bank
from repro.models import build_encoder
from repro.models.base import CTRModel
from repro.nn import MLPBlock
from repro.nn import functional as F


class TwoTowerInteraction(CTRModel):
    """Custom model: user/item towers + an explicit interaction head.

    The head consumes [user_vec, item_vec, user_vec * item_vec], a common
    production pattern that none of the built-in zoo models use.
    """

    def __init__(self, encoder, rng, tower_dims=(24,), head_dims=(16,)):
        super().__init__(encoder)
        self.user_tower = MLPBlock(encoder.field_dim, tower_dims, rng,
                                   activation="relu")
        self.item_tower = MLPBlock(encoder.field_dim, tower_dims, rng,
                                   activation="relu")
        head_in = 3 * self.user_tower.out_dim
        self.head = MLPBlock(head_in, list(head_dims) + [1], rng,
                             activation="relu", out_activation="linear")

    def forward(self, batch):
        user_field, item_field = self.encoder.fields(batch)
        user_vec = self.user_tower(user_field)
        item_vec = self.item_tower(item_field)
        interaction = user_vec * item_vec
        features = F.concat([user_vec, item_vec, interaction], axis=-1)
        return self.head(features).reshape(len(batch))


def build(seed):
    rng = np.random.default_rng(seed)
    dataset = amazon6_sim(scale=0.6, seed=0)
    return dataset, TwoTowerInteraction(
        build_encoder(dataset, field_dim=16, rng=rng), rng
    )


def main():
    config = TrainConfig(epochs=8)
    dataset, model = build(seed=0)
    print(f"Custom model has {model.num_parameters()} parameters; "
          "MAMDR has never seen this structure.")

    _, baseline_model = build(seed=0)
    baseline = evaluate_bank(
        Alternate().fit(baseline_model, dataset, config, seed=0),
        dataset, method="TwoTower (alternate)",
    )
    mamdr = evaluate_bank(
        MAMDR().fit(model, dataset, config, seed=0),
        dataset, method="TwoTower+MAMDR",
    )
    print(f"TwoTower alternate  mean AUC: {baseline.mean_auc:.4f}")
    print(f"TwoTower + MAMDR    mean AUC: {mamdr.mean_auc:.4f}")
    print(f"lift: {mamdr.mean_auc - baseline.mean_auc:+.4f}")


if __name__ == "__main__":
    main()
