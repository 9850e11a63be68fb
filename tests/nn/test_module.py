"""Module system: registration, state dicts, train/eval modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Dense, Dropout, Module, ModuleList, Parameter


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones((2, 2)))
        self.child = Dense(2, 3, np.random.default_rng(0))
        self.blocks = ModuleList([Dense(3, 1, np.random.default_rng(1))])

    def forward(self, x):
        return self.blocks[0](self.child(x @ self.w))


def test_named_parameters_are_dotted_and_ordered():
    toy = Toy()
    names = [name for name, _ in toy.named_parameters()]
    assert names == [
        "w",
        "child.weight",
        "child.bias",
        "blocks.0.weight",
        "blocks.0.bias",
    ]


def test_num_parameters_counts_scalars():
    toy = Toy()
    expected = 4 + (2 * 3 + 3) + (3 * 1 + 1)
    assert toy.num_parameters() == expected


def test_state_dict_round_trip():
    toy = Toy()
    state = toy.state_dict()
    # state is a copy, not a view
    state["w"][0, 0] = 99.0
    assert toy.w.data[0, 0] == 1.0

    other = Toy()
    other.load_state_dict(state)
    assert other.w.data[0, 0] == 99.0
    # loading copies too
    state["w"][0, 0] = -1.0
    assert other.w.data[0, 0] == 99.0


def test_load_state_dict_rejects_missing_and_mismatched():
    toy = Toy()
    state = toy.state_dict()
    del state["w"]
    with pytest.raises(KeyError):
        toy.load_state_dict(state)

    state = toy.state_dict()
    state["w"] = np.zeros((3, 3))
    with pytest.raises(ValueError):
        toy.load_state_dict(state)


def test_train_eval_recursion():
    toy = Toy()
    assert toy.training and toy.child.training
    toy.eval()
    assert not toy.training and not toy.child.training
    assert not toy.blocks[0].training
    toy.train()
    assert toy.blocks[0].training


def test_zero_grad_clears_all():
    toy = Toy()
    for param in toy.parameters():
        param.grad = np.ones_like(param.data)
    toy.zero_grad()
    assert all(p.grad is None for p in toy.parameters())


def test_module_list_type_checked():
    with pytest.raises(TypeError):
        ModuleList([object()])


def test_named_modules_walks_tree():
    toy = Toy()
    names = [name for name, _ in toy.named_modules()]
    assert "" in names
    assert "child" in names
    assert "blocks.0" in names


def test_named_rngs_yields_every_module_stream():
    toy = Toy()
    assert list(toy.named_rngs()) == []   # Dense keeps no stream
    root_rng, nested_rng = np.random.default_rng(2), np.random.default_rng(3)
    toy._rng = root_rng
    toy.blocks.append(Dropout(0.5, nested_rng))
    assert list(toy.named_rngs()) == [(".", root_rng), ("blocks.1", nested_rng)]


def test_parameter_reassignment_replaces_registration():
    toy = Toy()
    toy.w = Parameter(np.zeros((2, 2)))
    names = [name for name, _ in toy.named_parameters()]
    assert names.count("w") == 1
    assert toy.w.data.sum() == 0.0
