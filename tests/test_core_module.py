"""Tests for the delayed-aggregation core: module strategies, trace
emission, and the distributivity properties of Equ. 2/3."""

import numpy as np
import pytest

from repro.core import (
    ModuleSpec,
    PointCloudModule,
    STRATEGIES,
    linear_distributivity_gap,
    max_subtract_gap,
    mlp_distributivity_gap,
    relative_error,
)
from repro.neural import SharedMLP, Tensor, no_grad
from repro.profiling.trace import (
    GatherOp,
    MatMulOp,
    NeighborSearchOp,
    ReduceMaxOp,
    SubtractOp,
)


def make_cloud(n=64, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(n, 3))
    return coords, Tensor(coords.copy())


SPEC = ModuleSpec("m1", n_in=64, n_out=32, k=8, mlp_dims=(3, 16, 24))


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


class TestModuleOutput:
    """The Neighbor Index Table and Point Feature Table as plain arrays."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_indices_index_the_input_cloud(self, strategy):
        coords, feats = make_cloud(seed=6)
        out = PointCloudModule(SPEC)(coords, feats, strategy=strategy)
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
        coords, feats = make_cloud(seed=7)
        mod = PointCloudModule(SPEC)
        outs = [mod(coords, feats, strategy=s) for s in STRATEGIES]
        for out in outs[1:]:
            np.testing.assert_array_equal(out.indices, outs[0].indices)
            np.testing.assert_array_equal(out.centroids, outs[0].centroids)

    def test_original_keeps_no_pft(self):
        coords, feats = make_cloud()
        assert PointCloudModule(SPEC)(coords, feats,
                                      strategy="original").pft is None

    def test_delayed_pft_is_the_mlp_over_every_input_point(self):
        coords, feats = make_cloud(seed=8)
        mod = PointCloudModule(SPEC, rng=np.random.default_rng(9))
        out = mod(coords, feats, strategy="delayed")
        with no_grad():
            expected = mod.mlp(Tensor(feats.data.copy())).data
        np.testing.assert_allclose(out.pft, expected, rtol=1e-12, atol=1e-12)

    def test_delayed_output_is_the_gathered_max_minus_the_centroid_row(self):
        # Equ. 3: gather PFT rows by the NIT, reduce, then subtract the
        # centroid's own row after the reduction.
        coords, feats = make_cloud(seed=10)
        out = PointCloudModule(SPEC)(coords, feats, strategy="delayed")
        expected = (out.pft[out.indices].max(axis=1)
                    - out.pft[out.centroids])
        np.testing.assert_array_equal(out.features.data, expected)

    def test_limited_pft_is_the_first_weight_product(self):
        # Only the bias-free product is hoisted; the bias cancels in the
        # centroid subtraction and is re-added after aggregation.
        coords, feats = make_cloud(seed=11)
        mod = PointCloudModule(SPEC, rng=np.random.default_rng(12))
        out = mod(coords, feats, strategy="limited")
        weight = mod.mlp.net.layers[0].weight.data
        assert out.pft.shape == (64, 16)
        np.testing.assert_allclose(out.pft, feats.data @ weight,
                                   rtol=1e-12, atol=1e-12)


class TestStrategies:
    def test_output_shapes_all_strategies(self):
        coords, feats = make_cloud()
        for strategy in STRATEGIES:
            mod = PointCloudModule(SPEC, rng=np.random.default_rng(1))
            out = mod(coords, feats, strategy=strategy)
            assert out.coords.shape == (32, 3)
            assert out.features.shape == (32, 24)
            assert out.indices.shape == (32, 8)
            np.testing.assert_array_equal(out.coords, coords[out.centroids])

    def test_limited_exactly_matches_original(self):
        # Hoisting only the linear MVM is precise (§VII-C).
        coords, feats = make_cloud(seed=2)
        mod = PointCloudModule(SPEC, rng=np.random.default_rng(3))
        orig = mod(coords, feats, strategy="original")
        ltd = mod(coords, feats, strategy="limited")
        np.testing.assert_allclose(ltd.features.data, orig.features.data,
                                   rtol=1e-9, atol=1e-9)

    def test_delayed_is_close_but_not_exact(self):
        coords, feats = make_cloud(seed=4)
        mod = PointCloudModule(SPEC, rng=np.random.default_rng(5))
        orig = mod(coords, feats, strategy="original")
        delayed = mod(coords, feats, strategy="delayed")
        err = relative_error(delayed.features.data, orig.features.data)
        assert err > 0.0        # the ReLU breaks exactness...
        assert err < 1.5        # ...but the result stays in the same regime

    def test_delayed_exact_for_linear_mlp(self):
        # Without nonlinearity the distribution is precise (Equ. 3).
        spec = ModuleSpec("lin", 32, 16, 4, (3, 8))
        coords, feats = make_cloud(32, seed=6)
        mod = PointCloudModule(spec, rng=np.random.default_rng(0))
        # Strip the ReLU so the MLP is a pure affine map; the bias adds a
        # constant to every row so it cancels in aggregation subtraction
        # but NOT in max-reduction... use no-bias for exactness.
        from repro.neural.layers import Linear

        mod.mlp.net.layers = [Linear(3, 8, bias=False, rng=np.random.default_rng(2))]
        orig = mod(coords, feats, strategy="original")
        delayed = mod(coords, feats, strategy="delayed")
        np.testing.assert_allclose(delayed.features.data, orig.features.data,
                                   atol=1e-9)

    def test_delayed_produces_pft(self):
        coords, feats = make_cloud()
        mod = PointCloudModule(SPEC)
        out = mod(coords, feats, strategy="delayed")
        assert out.pft is not None
        assert out.pft.shape == (64, 24)

    def test_feature_space_search(self):
        spec = ModuleSpec("edge", 32, 32, 4, (8, 16), search_space="features")
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(32, 3))
        feats = Tensor(rng.normal(size=(32, 8)))
        mod = PointCloudModule(spec)
        out = mod(coords, feats, strategy="delayed")
        assert out.features.shape == (32, 16)
        # With n_out == n_in, every point is its own centroid.
        np.testing.assert_array_equal(out.centroids, np.arange(32))

    def test_bad_strategy_rejected(self):
        coords, feats = make_cloud()
        with pytest.raises(ValueError):
            PointCloudModule(SPEC)(coords, feats, strategy="eager")

    def test_feature_shape_mismatch_rejected(self):
        coords, _ = make_cloud()
        with pytest.raises(ValueError):
            PointCloudModule(SPEC)(coords, Tensor(np.zeros((64, 5))))

    @pytest.mark.parametrize("n", [16, 63, 65, 200])
    def test_point_count_other_than_the_spec_rejected(self, n):
        # A module runs at its spec's scale, as networks do.
        coords, feats = make_cloud(n)
        with pytest.raises(ValueError,
                           match=r"^m1 expects \(64, 3\) coords, got"):
            PointCloudModule(SPEC)(coords, feats)

    def test_limited_requires_a_leading_linear(self):
        # The hoisted product is the first Linear's weight multiply: an
        # MLP that does not start with one has nothing to hoist.
        from repro.neural.layers import ReLU

        coords, feats = make_cloud()
        mod = PointCloudModule(SPEC)
        mod(coords, feats, strategy="limited")  # memoizes the graph
        mod.mlp.net.layers = [ReLU(), *mod.mlp.net.layers]
        with pytest.raises(TypeError, match="leading Linear"):
            mod(coords, feats, strategy="limited")
        with pytest.raises(TypeError, match="leading Linear"):
            mod.trace("limited")
        mod(coords, feats, strategy="original")  # other strategies still run

    def test_gradients_flow_through_delayed(self):
        coords, feats = make_cloud()
        mod = PointCloudModule(SPEC)
        out = mod(coords, feats, strategy="delayed")
        (out.features * out.features).sum().backward()
        assert all(p.grad is not None for p in mod.parameters())

    def test_gradients_flow_through_original(self):
        coords, feats = make_cloud()
        mod = PointCloudModule(SPEC)
        out = mod(coords, feats, strategy="original")
        (out.features * out.features).sum().backward()
        assert all(p.grad is not None for p in mod.parameters())


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
        coords, _ = make_cloud(16, seed=12)
        mod = PointCloudModule(self.SMALL, rng=np.random.default_rng(13))

        def loss():
            out = mod(coords, Tensor(coords.copy()), strategy=strategy)
            return (out.features * out.features).sum()

        self.assert_matches(self.analytic_and_numeric(mod, loss))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_network_gradients_match_finite_differences(self, strategy):
        from repro.networks.generic import GenericPointCloudNetwork

        specs = [self.SMALL,
                 ModuleSpec("fd2", n_in=8, n_out=4, k=3, mlp_dims=(4, 6))]
        net = GenericPointCloudNetwork(specs, head_dims=(6, 3),
                                       rng=np.random.default_rng(14))
        coords, _ = make_cloud(16, seed=15)

        def loss():
            logits = net.forward(coords, strategy=strategy)
            return (logits * logits).sum()

        self.assert_matches(self.analytic_and_numeric(net, loss))

    def gradients(self, mod, coords, strategy):
        mod.zero_grad()
        out = mod(coords, Tensor(coords.copy()), strategy=strategy)
        (out.features * out.features).sum().backward()
        return [p.grad.copy() for p in mod.parameters()]

    def test_limited_gradients_equal_original(self):
        # Hoisting only the linear MVM is precise (§VII-C) — forward to
        # 1e-9 (test_limited_exactly_matches_original), so backward too.
        coords, _ = make_cloud(16, seed=16)
        mod = PointCloudModule(self.SMALL, rng=np.random.default_rng(17))
        for a, b in zip(self.gradients(mod, coords, "original"),
                        self.gradients(mod, coords, "limited")):
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-9)

    def test_delayed_gradients_equal_original_for_linear_mlp(self):
        # Without a nonlinearity (and without a bias, which does not
        # cancel under the max) delayed == original exactly (Equ. 3,
        # test_delayed_exact_for_linear_mlp); the gradients must agree
        # to the same 1e-9.
        from repro.neural.layers import Linear

        spec = ModuleSpec("lin", 16, 8, 4, (3, 5))
        coords, _ = make_cloud(16, seed=18)
        mod = PointCloudModule(spec, rng=np.random.default_rng(19))
        mod.mlp.net.layers = [Linear(3, 5, bias=False,
                                     rng=np.random.default_rng(20))]
        original = self.gradients(mod, coords, "original")
        delayed = self.gradients(mod, coords, "delayed")
        assert original and np.abs(original[0]).max() > 0
        for a, b in zip(original, delayed):
            np.testing.assert_allclose(b, a, atol=1e-9)


class TestTraceEmission:
    def _trace(self, strategy):
        return PointCloudModule(SPEC).trace(strategy)

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
        # One trace door per object, the one networks use: the
        # module's memoized graph, the one forward runs, lowered.
        mod = PointCloudModule(SPEC)
        t = mod.trace("delayed")
        assert (t.network, t.strategy) == ("m1", "delayed")
        assert len(t.by_phase("N")) == 1
        assert mod.trace().strategy == "original"
        graph = mod.network_graph("delayed").graph
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

    def test_mlp_gap_with_batch_norm_eval_mode(self):
        # §VII-B: batch norm perturbs distributivity.  (In *training*
        # mode BN is invariant to constant row shifts so the gap
        # degenerates; inference mode is what deployment uses.)
        rng = np.random.default_rng(4)
        neighbors = rng.normal(size=(64, 4))
        centroid = rng.normal(size=4)
        bn = SharedMLP([4, 16, 8], batch_norm=True, rng=np.random.default_rng(5))
        bn(Tensor(neighbors))  # populate running statistics
        bn.eval()
        assert mlp_distributivity_gap(bn, neighbors, centroid) > 0.0

    def test_relative_error_zero_for_identical(self):
        a = np.ones((3, 3))
        assert relative_error(a, a) == 0.0

    def test_relative_error_zero_denominator(self):
        assert relative_error(np.ones(2), np.zeros(2)) > 0
