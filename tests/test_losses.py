import math

import numpy as np
import pytest

from advmt.discriminator import DiscriminatorConfig, DiscriminatorModel, init_discriminator
from advmt.errors import ConfigurationError, ContractError, DimensionError
from advmt.losses import (
    LossWeights,
    bone_loss,
    mpjpe,
    total_loss,
)
from advmt.skeleton import SkeletonTopology
from advmt.tensor import Tensor


def brute_force_mpjpe(pred, truth):
    total, count = 0.0, 0
    for t in range(pred.shape[0]):
        for n in range(pred.shape[1]):
            d = 0.0
            for k in range(3):
                d += (pred[t, n, k] - truth[t, n, k]) ** 2
            total += math.sqrt(d)
            count += 1
    return total / count


class TestMpjpe:
    def test_zero_when_equal(self, rng):
        x = rng.standard_normal((4, 3, 3))
        assert mpjpe(x, x.copy()) == 0.0

    def test_constant_offset(self, rng):
        truth = rng.standard_normal((5, 4, 3))
        offset = np.array([2.0, 3.0, 6.0])  # norm 7
        assert mpjpe(truth + offset, truth) == pytest.approx(7.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        r = np.random.default_rng(seed)
        pred = r.standard_normal((2, 3, 3))
        truth = r.standard_normal((2, 3, 3))
        assert abs(mpjpe(pred, truth) - brute_force_mpjpe(pred, truth)) < 1e-12

    def test_rotation_invariance(self, rng):
        from advmt.skeleton import rotation_about_axis

        pred = rng.standard_normal((3, 5, 3))
        truth = rng.standard_normal((3, 5, 3))
        rot = rotation_about_axis(rng.standard_normal(3), 0.83)
        before = mpjpe(pred, truth)
        after = mpjpe(pred @ rot.T, truth @ rot.T)
        assert abs(before - after) < 1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            mpjpe(rng.standard_normal((2, 3, 3)), rng.standard_normal((3, 3, 3)))

    def test_tensor_input_returns_graph(self, rng):
        pred = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
        out = mpjpe(pred, rng.standard_normal((2, 2, 3)))
        assert isinstance(out, Tensor)
        out.backward()
        assert pred.grad is not None


class TestBoneLoss:
    def test_zero_when_equal(self, chain3, rng):
        x = rng.standard_normal((4, 3, 3))
        assert bone_loss(x, x.copy(), chain3) == 0.0

    def test_translation_invariant(self, chain3, rng):
        truth = rng.standard_normal((4, 3, 3))
        pred = truth + np.array([100.0, -50.0, 25.0])
        assert bone_loss(pred, truth, chain3) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_unit_chain(self, chain3):
        # chain with unit bones along x; doubling all joints about the root
        # doubles each bone length, so the mean absolute error is 1.0
        truth = np.array([[[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]])
        pred = truth * 2.0
        assert bone_loss(pred, truth, chain3) == pytest.approx(1.0, abs=1e-12)

    def test_topology_mismatch(self, chain3, rng):
        with pytest.raises(Exception):
            bone_loss(rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5, 3)), chain3)


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LossWeights(lambda_bone=-0.1)


class TestTotalLoss:
    def _setup(self, rng, n=3):
        topo = SkeletonTopology(
            joint_names=tuple(f"j{i}" for i in range(n)), parent=(None,) + tuple(range(n - 1))
        )
        disc = init_discriminator(DiscriminatorConfig(input_dim=3 * n, hidden_dims=(6,)), seed=5)
        disc.layers[-1].W.data[:] = rng.standard_normal((6, 1)) * 0.3
        pred = Tensor(rng.standard_normal((2, n, 3)), requires_grad=True)
        truth = rng.standard_normal((2, n, 3))
        last = rng.standard_normal((n, 3))
        return topo, disc, pred, truth, last

    def test_reduces_to_mpjpe_with_zero_weights(self, rng):
        topo, disc, pred, truth, last = self._setup(rng)
        weights = LossWeights(lambda_bone=0.0, lambda_adv=0.0)
        _, breakdown = total_loss(pred, truth, topo, disc, weights, last)
        assert breakdown.total == mpjpe(pred.data, truth)

    def test_zero_when_perfect_and_disc_silent(self, rng):
        topo, _, pred, _, last = self._setup(rng)
        disc = DiscriminatorModel(DiscriminatorConfig(input_dim=9, hidden_dims=(6,)), None)
        _, breakdown = total_loss(pred, pred.data.copy(), topo, disc, LossWeights(), last)
        assert breakdown.total == 0.0

    def test_components_sum(self, rng):
        topo, disc, pred, truth, last = self._setup(rng)
        weights = LossWeights(lambda_bone=0.3, lambda_adv=0.05)
        _, b = total_loss(pred, truth, topo, disc, weights, last)
        assert abs(b.total - (b.mpjpe + 0.3 * b.bone + 0.05 * b.adversarial)) < 1e-12

    def test_component_oracle(self, rng):
        from advmt.discriminator import generator_adversarial_loss

        topo, disc, pred, truth, last = self._setup(rng)
        weights = LossWeights(lambda_bone=0.2, lambda_adv=0.1)
        _, b = total_loss(pred, truth, topo, disc, weights, last)
        seq = np.concatenate([last[None], pred.data], axis=0)
        deltas = (seq[1:] - seq[:-1]).reshape(-1, 9)
        expected = (
            mpjpe(pred.data, truth)
            + 0.2 * bone_loss(pred.data, truth, topo)
            + 0.1 * generator_adversarial_loss(disc, deltas).item()
        )
        assert abs(b.total - expected) < 1e-12

    def test_gradients_reach_prediction_not_disc(self, rng):
        topo, disc, pred, truth, last = self._setup(rng)
        loss, _ = total_loss(pred, truth, topo, disc, LossWeights(), last)
        loss.backward()
        assert pred.grad is not None
        assert all(p.grad is None for p in disc.parameters())

    def test_adv_requires_disc(self, rng):
        topo, _, pred, truth, last = self._setup(rng)
        with pytest.raises(ContractError):
            total_loss(pred, truth, topo, None, LossWeights(lambda_adv=0.5), last)

    def test_batched_input(self, rng):
        topo, disc, _, _, _ = self._setup(rng)
        pred = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        truth = rng.standard_normal((4, 2, 3, 3))
        last = rng.standard_normal((4, 3, 3))
        loss, b = total_loss(pred, truth, topo, disc, LossWeights(), last)
        assert math.isfinite(b.total)
        loss.backward()
        assert pred.grad.shape == pred.shape
