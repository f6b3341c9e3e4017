"""Unit tests for layers, shared MLP, losses and optimizers."""

import numpy as np
import pytest

from conftest import toy
from repro.networks import ALL_NETWORKS
from repro.neural import (
    Adam,
    Linear,
    Module,
    SharedMLP,
    Tensor,
    accuracy,
    cross_entropy,
    log_softmax,
    mse_loss,
)


class TestLinear:
    def test_shapes(self):
        layer = Linear(3, 8)
        out = layer(Tensor(np.zeros((5, 3))))
        assert out.shape == (5, 8)

    def test_bias_optional(self):
        layer = Linear(3, 4, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 3))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_parameters_discovered(self):
        layer = Linear(3, 4)
        assert len(layer.parameters()) == 2

    def test_gradients_reach_weights(self):
        layer = Linear(2, 2)
        out = layer(Tensor(np.ones((3, 2))))
        (out * out).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestModuleProtocol:
    def test_zero_grad(self):
        layer = Linear(2, 2)
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        layer.zero_grad()
        assert layer.weight.grad is None


class TestSharedMLP:
    def test_row_sharing(self):
        # The same MLP applied per row: duplicating a row duplicates output.
        mlp = SharedMLP([3, 16, 8])
        row = np.random.default_rng(0).normal(size=(1, 3))
        x = Tensor(np.vstack([row, row]))
        out = mlp(x).data
        np.testing.assert_allclose(out[0], out[1])

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            SharedMLP([3])

    def test_final_activation_off_allows_negative(self):
        mlp = SharedMLP([2, 4, 2], final_activation=False)
        out = mlp(Tensor(np.random.default_rng(3).normal(size=(50, 2))))
        assert out.data.min() < 0

    def test_final_activation_on_nonnegative(self):
        mlp = SharedMLP([2, 4, 2], final_activation=True)
        out = mlp(Tensor(np.random.default_rng(3).normal(size=(50, 2))))
        assert out.data.min() >= 0

    def test_parameters_discovered_through_the_layer_list(self):
        mlp = SharedMLP([3, 8, 4])
        assert len(mlp.parameters()) == 4  # 2 Linear * (weight + bias)


class TestLayerForm:
    def test_one_relu_flag_per_linear(self):
        # A head: no activation after the last Linear.
        mlp = SharedMLP([3, 8, 4, 2], final_activation=False)
        assert [layer.weight.shape for layer in mlp.layers] \
            == [(3, 8), (8, 4), (4, 2)]
        assert mlp.relu == (True, True, False)
        assert SharedMLP([3, 8, 4]).relu == (True, True)

    @pytest.mark.parametrize("flags", [(True,), (True, True, False)],
                             ids=["a-flag-short", "a-flag-over"])
    def test_relu_flags_out_of_step_with_the_layers_are_refused(self, flags):
        # Assigning `relu` alone leaves it out of step with `layers`: the
        # forward refuses rather than drop a layer or a flag silently.
        mlp = SharedMLP([3, 8, 4])
        mlp.relu = flags
        with pytest.raises(ValueError, match="zip"):
            mlp(Tensor(np.zeros((2, 3))))

    @staticmethod
    def shared_mlps(net):
        """Every SharedMLP ``net`` holds, at any depth of its attributes."""
        found, stack, seen = [], [net], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, SharedMLP):
                found.append(obj)
                continue
            values = obj if isinstance(obj, (list, tuple)) \
                else vars(obj).values()
            stack.extend(v for v in values
                         if isinstance(v, (Module, list, tuple)))
        return found

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_every_network_mlp_is_linear_relu_layers(self, name):
        # An MLP layer is a Linear and its ReLU: only a last layer (a
        # head's output) drops the ReLU, and the MLP's forward is that
        # chain of GEMMs, biases and ReLUs.
        mlps = self.shared_mlps(toy(name))
        assert mlps
        rng = np.random.default_rng(1)
        for mlp in mlps:
            assert [layer.weight.shape for layer in mlp.layers] \
                == list(zip(mlp.dims[:-1], mlp.dims[1:]))
            assert all(isinstance(layer, Linear) for layer in mlp.layers)
            assert mlp.relu[:-1] == (True,) * (len(mlp.layers) - 1)
            x = rng.normal(size=(5, mlp.dims[0]))
            expected = x
            for linear, relu in zip(mlp.layers, mlp.relu, strict=True):
                expected = expected @ linear.weight.data + linear.bias.data
                if relu:
                    expected = np.maximum(expected, 0.0)
            np.testing.assert_allclose(mlp(Tensor(x)).data, expected,
                                       rtol=1e-12, atol=1e-12)


class TestLosses:
    def test_log_softmax_normalizes(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(6, 5)))
        p = np.exp(log_softmax(logits).data)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-9)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = cross_entropy(logits, [0, 1, 2, 3])
        np.testing.assert_allclose(loss.item(), np.log(10), rtol=1e-9)

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        cross_entropy(logits, [1]).backward()
        assert logits.grad[0, 1] < 0  # push target logit up
        assert logits.grad[0, 0] > 0

    def test_mse(self):
        loss = mse_loss(Tensor([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(loss.item(), 2.5)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(Tensor(logits), [0, 1, 1]) == pytest.approx(2 / 3)


class TestOptimizers:
    def _quadratic_steps(self, make_opt, steps=200):
        from repro.neural.layers import Parameter

        p = Parameter(np.array([5.0, -3.0]))
        opt = make_opt([p])
        for _ in range(steps):
            opt.zero_grad()
            loss = (Tensor(p.data * 0) + p * p).sum()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        return p.data

    def test_adam_converges(self):
        final = self._quadratic_steps(lambda ps: Adam(ps, lr=0.1))
        assert np.abs(final).max() < 1e-3

    def test_weight_decay_shrinks(self):
        from repro.neural.layers import Parameter

        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        # The decay term is the whole gradient, so Adam's first,
        # bias-corrected step moves the weight by lr towards zero.
        assert p.data[0] == pytest.approx(0.9)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_training_reduces_loss_on_toy_task(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 2))
        y = (x[:, 0] * x[:, 1] > 0).astype(int)
        net = SharedMLP([2, 32, 2], final_activation=False, rng=rng)
        opt = Adam(net.parameters(), lr=0.01)
        first = None
        for _ in range(60):
            opt.zero_grad()
            loss = cross_entropy(net(Tensor(x)), y)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5
        assert accuracy(net(Tensor(x)), y) > 0.85
