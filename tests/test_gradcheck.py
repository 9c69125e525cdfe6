import inspect

import numpy as np
import pytest

import advmt.tensor as tensor_mod
from advmt import gradcheck
from advmt.errors import ContractError


def graph_ops():
    """Every function in ``advmt.tensor`` that builds a node through ``Tensor._result``."""
    return sorted(
        name for name, fn in inspect.getmembers(tensor_mod, inspect.isfunction)
        if fn.__module__ == tensor_mod.__name__ and "Tensor._result" in inspect.getsource(fn)
    )


def test_every_differentiable_op_has_an_entry():
    ops = graph_ops()
    assert "take" in ops and "encoder_stack" in ops  # the source scan finds the ops
    entries = {name for name, _, _ in gradcheck._SUITE}
    assert [op for op in ops if op not in entries] == []


def test_discriminator_backward_is_checked(monkeypatch):
    # A relu rule off by 0.1 % inside the discriminator must fail the
    # generator_adv entry, which sees the discriminator only through its
    # gradient into the fake velocities.
    real_relu = tensor_mod.relu

    def skewed_relu(a):
        out = real_relu(a)
        if out._vjp is not None:
            orig = out._vjp
            out._vjp = lambda g: [(p, 1.001 * c) for p, c in orig(g)]
        return out

    [(tol, runner)] = [(t, r) for name, t, r in gradcheck._SUITE if name == "generator_adv"]
    assert runner(np.random.default_rng(2024), 10) < tol
    monkeypatch.setattr(tensor_mod, "relu", skewed_relu)
    assert runner(np.random.default_rng(2024), 10) > tol


@pytest.mark.parametrize("instances", [0, -3])
def test_no_instances_is_refused(instances):
    with pytest.raises(ContractError, match=f"instances must be >= 1, got {instances}"):
        gradcheck.run_suite(instances=instances)


def test_every_entry_checks_something():
    # An entry whose runner checks no coordinate reads exactly 0 and passes;
    # a central difference that is checked carries some rounding error.
    assert [r.op for r in gradcheck.run_suite(instances=1) if not r.worst > 0] == []
