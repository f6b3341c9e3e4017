"""Tests for the delayed-aggregation core: module strategies and trace
emission, each read off a one-module network's region, and the
distributivity properties of Equ. 2/3."""

import numpy as np
import pytest

from conftest import one_module_net, run_module
from repro.core import (
    ModuleSpec,
    STRATEGIES,
    linear_distributivity_gap,
    max_subtract_gap,
    mlp_distributivity_gap,
    relative_error,
)
from repro.neural import SharedMLP, Tensor, no_grad
from repro.neural.layers import Linear
from repro.profiling.trace import (
    GatherOp,
    MatMulOp,
    NeighborSearchOp,
    ReduceMaxOp,
    SubtractOp,
    Trace,
)


SPEC = ModuleSpec("m1", n_in=64, n_out=32, k=8, mlp_dims=(3, 16, 24))


def make_cloud(n=64, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3))


def module_net(spec=None, seed=0):
    """A one-module network around ``spec`` (default :data:`SPEC`)."""
    return one_module_net(spec or SPEC, rng=np.random.default_rng(seed))


def run(net, cloud, strategy="delayed"):
    """The module region's :class:`~conftest.ModuleRun` for one cloud."""
    return run_module(net, cloud, strategy)[2]


def module_trace(spec, strategy):
    """The records of ``spec``'s region in its one-module network's trace."""
    trace = module_net(spec).trace(strategy)
    return Trace(spec.name, strategy,
                 [op for op in trace if op.module == spec.name])


class TestModuleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModuleSpec("bad", n_in=10, n_out=20, k=4, mlp_dims=(3, 8))
        with pytest.raises(ValueError):
            ModuleSpec("bad", n_in=10, n_out=5, k=11, mlp_dims=(3, 8))
        with pytest.raises(ValueError):
            ModuleSpec("bad", n_in=10, n_out=5, k=4, mlp_dims=(3,))
        with pytest.raises(ValueError):
            ModuleSpec("bad", n_in=10, n_out=5, k=4, mlp_dims=(3, 8),
                       search_space="pixels")

    @pytest.mark.parametrize("field, value", [
        ("n_in", 0), ("n_in", -1), ("n_out", 0), ("n_out", -1),
        ("k", 0), ("k", -1), ("mlp_dims", (3, 0)), ("mlp_dims", (0, 8)),
        ("mlp_dims", (3, 8, -1)),
    ], ids=lambda value: str(value).replace(" ", ""))
    def test_degenerate_sizes_rejected_naming_the_spec(self, field, value):
        sizes = dict(n_in=10, n_out=5, k=4, mlp_dims=(3, 8))
        sizes[field] = value
        with pytest.raises(ValueError, match=r"^degenerate: .* at least 1"):
            ModuleSpec("degenerate", **sizes)

    def test_search_dim(self):
        assert SPEC.search_dim == 3
        feat = ModuleSpec("f", 10, 10, 4, (64, 64), search_space="features")
        assert feat.search_dim == 64


class TestModuleRun:
    """The Neighbor Index Table and Point Feature Table as plain arrays."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_indices_index_the_input_cloud(self, strategy):
        out = run(module_net(), make_cloud(seed=6), strategy)
        assert np.issubdtype(out.indices.dtype, np.integer)
        assert out.indices.shape == (32, 8)
        assert out.indices.min() >= 0 and out.indices.max() < 64
        assert out.centroids.shape == (32,)
        assert np.all(np.diff(out.centroids) > 0)
        for row, centroid in zip(out.indices, out.centroids):
            # k distinct neighbors, the centroid itself (distance 0) among them.
            assert len(set(row.tolist())) == 8
            assert centroid in row

    def test_neighbor_table_does_not_depend_on_strategy(self):
        cloud, net = make_cloud(seed=7), module_net()
        outs = [run(net, cloud, s) for s in STRATEGIES]
        for out in outs[1:]:
            np.testing.assert_array_equal(out.indices, outs[0].indices)
            np.testing.assert_array_equal(out.centroids, outs[0].centroids)

    def test_original_keeps_no_pft(self):
        assert run(module_net(), make_cloud(), "original").pft is None

    def test_delayed_pft_is_the_mlp_over_every_input_point(self):
        net = module_net(seed=9)
        _, feats, out = run_module(net, make_cloud(seed=8), "delayed")
        with no_grad():
            expected = net.encoder[0].mlp(Tensor(feats.data.copy())).data
        np.testing.assert_allclose(out.pft, expected, rtol=1e-12, atol=1e-12)

    def test_delayed_output_is_the_gathered_max_minus_the_centroid_row(self):
        # Equ. 3: gather PFT rows by the NIT, reduce, then subtract the
        # centroid's own row after the reduction.
        out = run(module_net(), make_cloud(seed=10), "delayed")
        expected = (out.pft[out.indices].max(axis=1)
                    - out.pft[out.centroids])
        np.testing.assert_array_equal(out.features.data, expected)

    def test_limited_pft_is_the_first_weight_product(self):
        # Only the bias-free product is hoisted; the bias cancels in the
        # centroid subtraction and is re-added after aggregation.
        net = module_net(seed=12)
        _, feats, out = run_module(net, make_cloud(seed=11), "limited")
        weight = net.encoder[0].mlp.layers[0].weight.data
        assert out.pft.shape == (64, 16)
        np.testing.assert_allclose(out.pft, feats.data @ weight,
                                   rtol=1e-12, atol=1e-12)


class TestStrategies:
    def test_output_shapes_all_strategies(self):
        cloud = make_cloud()
        for strategy in STRATEGIES:
            out = run(module_net(seed=1), cloud, strategy)
            assert out.coords.shape == (32, 3)
            assert out.features.shape == (32, 24)
            assert out.indices.shape == (32, 8)
            np.testing.assert_array_equal(out.coords, cloud[out.centroids])

    def test_limited_exactly_matches_original(self):
        # Hoisting only the linear MVM is precise (§VII-C).
        cloud, net = make_cloud(seed=2), module_net(seed=3)
        orig = run(net, cloud, "original")
        ltd = run(net, cloud, "limited")
        np.testing.assert_allclose(ltd.features.data, orig.features.data,
                                   rtol=1e-9, atol=1e-9)

    def test_delayed_is_close_but_not_exact(self):
        cloud, net = make_cloud(seed=4), module_net(seed=5)
        orig = run(net, cloud, "original")
        delayed = run(net, cloud, "delayed")
        err = relative_error(delayed.features.data, orig.features.data)
        assert err > 0.0        # the ReLU breaks exactness...
        assert err < 1.5        # ...but the result stays in the same regime

    def test_delayed_exact_for_linear_mlp(self):
        # Without nonlinearity the distribution is precise (Equ. 3).
        spec = ModuleSpec("lin", 32, 16, 4, (3, 8))
        cloud, net = make_cloud(32, seed=6), module_net(spec)
        # Strip the ReLU so the MLP is a pure affine map; the bias adds a
        # constant to every row so it cancels in aggregation subtraction
        # but NOT in max-reduction... use no-bias for exactness.
        mlp = net.encoder[0].mlp
        mlp.layers = [Linear(3, 8, bias=False, rng=np.random.default_rng(2))]
        mlp.relu = (False,)
        orig = run(net, cloud, "original")
        delayed = run(net, cloud, "delayed")
        np.testing.assert_allclose(delayed.features.data, orig.features.data,
                                   atol=1e-9)

    def test_delayed_produces_pft(self):
        out = run(module_net(), make_cloud(), "delayed")
        assert out.pft is not None
        assert out.pft.shape == (64, 24)

    def test_feature_space_search(self):
        # The region reads the 8-wide rows of a module before it.
        spec = ModuleSpec("edge", 32, 32, 4, (8, 16), search_space="features")
        out = run(module_net(spec), make_cloud(32, seed=8), "delayed")
        assert out.features.shape == (32, 16)
        # With n_out == n_in, every point is its own centroid.
        np.testing.assert_array_equal(out.centroids, np.arange(32))

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            module_net().forward(make_cloud(), strategy="eager")

    def test_feature_shape_mismatch_rejected(self):
        # The region's input rows are the lifted coords: a cloud whose
        # rows are not 3-D is refused at the door, single or stacked.
        net, cloud = module_net(), np.zeros((64, 5))
        with pytest.raises(ValueError, match=r"expects \(64, 3\) coords"):
            net.forward(cloud)
        with pytest.raises(ValueError, match=r"expects \(batch, 64, 3\)"):
            net.forward_batch(cloud[None])

    @pytest.mark.parametrize("n", [16, 63, 65, 200])
    def test_point_count_other_than_the_spec_rejected(self, n):
        # A module runs at its spec's scale, as its network does.
        with pytest.raises(ValueError,
                           match=r"^custom expects \(64, 3\) coords, got"):
            module_net().forward(make_cloud(n))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_relu_flags_out_of_step_with_the_layers_are_not_run(self, strategy):
        # Assigning `layers` or `relu` alone can leave a layer without its
        # flag or a flag without its layer: neither the interpreter nor a
        # kernel program may run a layer with another's flag, so running
        # or compiling the region raises.
        from repro.backend import compile_kernel_program

        net = module_net()
        cloud = make_cloud()
        run(net, cloud, strategy)  # memoizes the graph
        mlp = net.encoder[0].mlp
        flags = mlp.relu
        for out_of_step in (flags[:-1], (*flags, True)):
            mlp.relu = out_of_step
            with pytest.raises(ValueError, match="layers has .* relu flags"):
                run(net, cloud, strategy)
            with pytest.raises(ValueError, match="layers has .* relu flags"):
                compile_kernel_program(net, strategy=strategy)

    def test_gradients_flow_through_delayed(self):
        net = module_net()
        out = run(net, make_cloud(), "delayed")
        (out.features * out.features).sum().backward()
        assert all(p.grad is not None for p in net.encoder[0].parameters())

    def test_gradients_flow_through_original(self):
        net = module_net()
        out = run(net, make_cloud(), "original")
        (out.features * out.features).sum().backward()
        assert all(p.grad is not None for p in net.encoder[0].parameters())


class TestStrategyGradients:
    """Finite-difference check of the three strategies' gradients.

    The lifted front doors carry the training path (Fig. 16), and
    ``is not None`` says nothing about a gradient's value: every
    parameter's analytic gradient must equal the float64 central
    difference, and the strategies' gradients must agree with each other
    wherever their forwards do.
    """

    SMALL = ModuleSpec("fd", n_in=16, n_out=8, k=4, mlp_dims=(3, 5, 4))
    TOL = 1e-6

    @staticmethod
    def analytic_and_numeric(owner, loss):
        """Per-parameter (analytic, numeric) gradient pairs of ``loss()``."""
        from test_tensor import numeric_grad

        # Biases initialise to exactly zero and a centroid is its own
        # neighbor (offset exactly zero), so at initialisation a
        # pre-activation sits *on* the ReLU kink, where a central
        # difference reads half the one-sided slope.  Check at a generic
        # point instead.
        jitter = np.random.default_rng(21)
        for param in owner.parameters():
            param.data = param.data + jitter.normal(scale=0.1,
                                                    size=param.shape)
        owner.zero_grad()
        loss().backward()
        pairs = []
        for param in owner.parameters():
            def at(x, param=param):
                saved, param.data = param.data, x
                try:
                    with no_grad():
                        return float(loss().data)
                finally:
                    param.data = saved

            pairs.append((param.grad, numeric_grad(at, param.data)))
        return pairs

    def assert_matches(self, pairs):
        assert pairs
        for analytic, numeric in pairs:
            assert np.abs(numeric).max() > 0  # the parameter is exercised
            bound = self.TOL * max(1.0, np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() <= bound

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_module_gradients_match_finite_differences(self, strategy):
        cloud, net = make_cloud(16, seed=12), module_net(self.SMALL, seed=13)

        def loss():
            out = run(net, cloud, strategy)
            return (out.features * out.features).sum()

        self.assert_matches(self.analytic_and_numeric(net.encoder[0], loss))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_network_gradients_match_finite_differences(self, strategy):
        from repro.networks.generic import GenericPointCloudNetwork

        specs = [self.SMALL,
                 ModuleSpec("fd2", n_in=8, n_out=4, k=3, mlp_dims=(4, 6))]
        net = GenericPointCloudNetwork(specs, head_dims=(6, 3),
                                       rng=np.random.default_rng(14))
        cloud = make_cloud(16, seed=15)

        def loss():
            logits = net.forward(cloud, strategy=strategy)
            return (logits * logits).sum()

        self.assert_matches(self.analytic_and_numeric(net, loss))

    def gradients(self, net, cloud, strategy):
        net.zero_grad()
        out = run(net, cloud, strategy)
        (out.features * out.features).sum().backward()
        return [p.grad.copy() for p in net.encoder[0].parameters()]

    def test_limited_gradients_equal_original(self):
        # Hoisting only the linear MVM is precise (§VII-C) — forward to
        # 1e-9 (test_limited_exactly_matches_original), so backward too.
        cloud, net = make_cloud(16, seed=16), module_net(self.SMALL, seed=17)
        for a, b in zip(self.gradients(net, cloud, "original"),
                        self.gradients(net, cloud, "limited")):
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-9)

    def test_delayed_gradients_equal_original_for_linear_mlp(self):
        # Without a nonlinearity (and without a bias, which does not
        # cancel under the max) delayed == original exactly (Equ. 3,
        # test_delayed_exact_for_linear_mlp); the gradients must agree
        # to the same 1e-9.
        spec = ModuleSpec("lin", 16, 8, 4, (3, 5))
        cloud, net = make_cloud(16, seed=18), module_net(spec, seed=19)
        mlp = net.encoder[0].mlp
        mlp.layers = [Linear(3, 5, bias=False, rng=np.random.default_rng(20))]
        mlp.relu = (False,)
        original = self.gradients(net, cloud, "original")
        delayed = self.gradients(net, cloud, "delayed")
        assert original and np.abs(original[0]).max() > 0
        for a, b in zip(original, delayed):
            np.testing.assert_allclose(b, a, atol=1e-9)


class TestTraceEmission:
    def _trace(self, strategy):
        return module_trace(SPEC, strategy)

    def test_original_op_sequence(self):
        t = self._trace("original")
        kinds = [type(op).__name__ for op in t]
        assert kinds == [
            "SampleOp", "NeighborSearchOp", "GatherOp", "SubtractOp",
            "MatMulOp", "MatMulOp", "ReduceMaxOp",
        ]

    def test_original_mlp_rows_are_aggregated(self):
        t = self._trace("original")
        matmuls = t.by_type(MatMulOp)
        assert all(op.rows == 32 * 8 for op in matmuls)  # n_out * k

    def test_delayed_mlp_rows_are_input_points(self):
        t = self._trace("delayed")
        matmuls = t.by_type(MatMulOp)
        assert all(op.rows == 64 for op in matmuls)  # n_in

    def test_delayed_marks_overlap(self):
        t = self._trace("delayed")
        assert all(op.parallelizable for op in t.by_type(MatMulOp))
        assert all(op.parallelizable for op in t.by_type(NeighborSearchOp))

    def test_delayed_gather_working_set_is_larger(self):
        # The §IV-C bottleneck: gather table grows from Nin*Min to Nin*Mout.
        orig = self._trace("original").by_type(GatherOp)[0]
        delayed = self._trace("delayed").by_type(GatherOp)[0]
        assert delayed.table_bytes > orig.table_bytes
        assert delayed.table_bytes == 64 * 24 * 4

    def test_delayed_reduction_in_aggregation_phase(self):
        t = self._trace("delayed")
        assert t.by_type(ReduceMaxOp)[0].phase == "A"
        assert self._trace("original").by_type(ReduceMaxOp)[0].phase == "F"

    def test_limited_hoists_only_first_layer(self):
        t = self._trace("limited")
        matmuls = t.by_type(MatMulOp)
        assert matmuls[0].rows == 64 and matmuls[0].parallelizable
        assert matmuls[1].rows == 32 * 8 and not matmuls[1].parallelizable

    def test_mac_reduction_delayed_vs_original(self):
        orig = self._trace("original").mlp_macs()
        delayed = self._trace("delayed").mlp_macs()
        # Rows shrink from n_out*k=256 to n_in=64: 4x fewer MACs.
        assert delayed * 4 == orig

    def test_subtract_rows_shrink_in_delayed(self):
        orig = self._trace("original").by_type(SubtractOp)[0]
        delayed = self._trace("delayed").by_type(SubtractOp)[0]
        assert orig.rows == 32 * 8
        assert delayed.rows == 32  # subtraction after reduction

    def test_trace_is_lowered_from_the_forward_graph(self):
        # One trace door, the network's: its memoized graph, the one
        # forward runs, lowered.
        net = module_net()
        t = net.trace("delayed")
        assert (t.network, t.strategy) == ("custom", "delayed")
        assert len(t.by_phase("N")) == 1
        assert net.trace().strategy == "original"
        graph = net.network_graph("delayed").graph
        assert len(t.by_type(MatMulOp)) == len(graph.find("matmul"))


class TestDistributivity:
    def test_max_subtract_identity_exact(self):
        rng = np.random.default_rng(0)
        gap = max_subtract_gap(rng.normal(size=(16, 8)), rng.normal(size=8))
        assert gap == 0.0

    def test_linear_distributivity_exact(self):
        rng = np.random.default_rng(1)
        gap = linear_distributivity_gap(
            rng.normal(size=(8, 4)), rng.normal(size=(16, 8)), rng.normal(size=8)
        )
        assert gap < 1e-12

    def test_mlp_gap_nonzero_with_relu(self):
        mlp = SharedMLP([4, 16, 8], rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        gap = mlp_distributivity_gap(mlp, rng.normal(size=(16, 4)), rng.normal(size=4))
        assert gap > 0.0

    def test_relative_error_zero_for_identical(self):
        a = np.ones((3, 3))
        assert relative_error(a, a) == 0.0

    def test_relative_error_zero_denominator(self):
        assert relative_error(np.ones(2), np.zeros(2)) > 0
