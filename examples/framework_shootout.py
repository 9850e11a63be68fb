"""Framework shootout: all ten learning frameworks on one dataset.

A compact version of the paper's Table X — every model-agnostic learning
framework applied to the same MLP on the Taobao-10 analogue.

Run:  python examples/framework_shootout.py
"""

from repro.core import TrainConfig
from repro.data import taobao_sim
from repro.experiments import MethodSpec, run_comparison
from repro.experiments.table10 import TABLE10_FRAMEWORKS


def main():
    dataset = taobao_sim(10, scale=0.8, seed=0)
    config = TrainConfig(epochs=6)
    specs = [
        MethodSpec(label, model="mlp", framework=name)
        for label, name in TABLE10_FRAMEWORKS
    ]
    print("Training 10 frameworks on Taobao-10 (MLP base model) ...")
    result = run_comparison(specs, dataset, config=config, seed=0, verbose=True)
    print()
    print(result.render(title="Frameworks on Taobao-10 — mean AUC and RANK"))
    print(f"\nbest framework: {result.best_method()}")


if __name__ == "__main__":
    main()
