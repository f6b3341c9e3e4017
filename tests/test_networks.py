"""Tests for the seven benchmark networks: construction, execution,
tracing, strategy equivalence and gradient flow."""

import numpy as np
import pytest

from repro.core import ModuleSpec
from repro.networks import (
    ALL_NETWORKS,
    PROFILED_NETWORKS,
    build_network,
    scale_spec,
    table1_rows,
)
from repro.profiling.trace import NeighborSearchOp

SCALE = 0.0625  # 1/16 of paper scale keeps execution fast


def toy(name):
    return build_network(name, scale=SCALE, rng=np.random.default_rng(0))


def cloud_for(net, seed=0):
    return np.random.default_rng(seed).normal(size=(net.n_points, 3))


class TestRegistry:
    def test_all_networks_buildable(self):
        for name in ALL_NETWORKS:
            net = build_network(name)
            assert net.name == name

    def test_unknown_network(self):
        with pytest.raises(KeyError):
            build_network("PointNet+++")

    def test_profiled_subset(self):
        assert set(PROFILED_NETWORKS) <= set(ALL_NETWORKS)
        assert len(PROFILED_NETWORKS) == 5
        assert len(ALL_NETWORKS) == 7

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 7
        domains = {r[0] for r in rows}
        assert domains == {"Classification", "Segmentation", "Detection"}
        datasets = {r[2] for r in rows}
        assert datasets == {"ModelNet40", "ShapeNet", "KITTI"}


class TestScaleSpec:
    def test_identity_at_one(self):
        spec = ModuleSpec("m", 1024, 512, 32, (3, 64))
        assert scale_spec(spec, 1.0) == spec

    def test_downscale_caps_k(self):
        spec = ModuleSpec("m", 1024, 512, 32, (3, 64))
        small = scale_spec(spec, 1 / 64)
        assert small.n_in == 16
        assert small.k <= small.n_in

    def test_invalid_factor(self):
        spec = ModuleSpec("m", 16, 8, 4, (3, 8))
        with pytest.raises(ValueError):
            scale_spec(spec, 0)


class TestExecution:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_forward_shapes(self, name):
        net = toy(name)
        out = net(cloud_for(net), strategy="delayed")
        if net.task == "classification":
            assert out.shape == (1, net.num_classes)
        elif net.task == "segmentation":
            assert out.shape == (net.n_points, net.num_classes)
        else:
            assert out["mask_logits"].shape == (net.n_points, 2)
            assert out["box"].shape[0] == 1

    @pytest.mark.parametrize("name", ["PointNet++ (c)", "DGCNN (c)"])
    def test_all_strategies_execute(self, name):
        net = toy(name)
        pts = cloud_for(net)
        for strategy in ("original", "delayed", "limited"):
            out = net(pts, strategy=strategy)
            assert np.isfinite(out.data).all()

    def test_wrong_input_shape_rejected(self):
        net = toy("PointNet++ (c)")
        with pytest.raises(ValueError):
            net(np.zeros((net.n_points + 1, 3)))

    def test_gradients_reach_all_parameters(self):
        net = toy("PointNet++ (c)")
        out = net(cloud_for(net), strategy="delayed")
        (out * out).sum().backward()
        grads = [p.grad is not None for p in net.parameters()]
        assert all(grads) and len(grads) > 10

    def test_fpointnet_parameters_include_box_stage(self):
        net = toy("F-PointNet")
        names = len(net.parameters())
        # seg encoder (3 modules * 6) + fps/heads + box stage; box_sa
        # modules alone add >= 10 parameters.
        assert names > 40

    def test_deterministic_given_seed(self):
        a = build_network("DGCNN (c)", scale=SCALE, rng=np.random.default_rng(7))
        b = build_network("DGCNN (c)", scale=SCALE, rng=np.random.default_rng(7))
        pts = cloud_for(a)
        np.testing.assert_allclose(
            a(pts, strategy="delayed").data, b(pts, strategy="delayed").data
        )


class TestTraces:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_trace_has_all_phases(self, name):
        net = build_network(name)
        t = net.trace("original")
        assert len(t.by_phase("N")) > 0
        assert len(t.by_phase("A")) > 0
        assert len(t.by_phase("F")) > 0

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_delayed_reduces_mlp_macs(self, name):
        net = build_network(name)
        orig = net.trace("original").mlp_macs()
        delayed = net.trace("delayed").mlp_macs()
        assert delayed < orig

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_limited_between_original_and_delayed(self, name):
        net = build_network(name)
        orig = net.trace("original").mlp_macs()
        ltd = net.trace("limited").mlp_macs()
        delayed = net.trace("delayed").mlp_macs()
        assert delayed <= ltd <= orig

    def test_dgcnn_searches_feature_space(self):
        net = build_network("DGCNN (c)")
        searches = net.trace("original").by_type(NeighborSearchOp)
        dims = [op.dim for op in searches]
        assert dims[0] == 3          # first module searches coordinates
        assert all(d > 3 for d in dims[1:])

    def test_pointnet_searches_coordinate_space(self):
        net = build_network("PointNet++ (c)")
        searches = net.trace("original").by_type(NeighborSearchOp)
        assert all(op.dim == 3 for op in searches)

    def test_fpointnet_large_neighborhoods(self):
        # §VII-D: F-PointNet's searches return mostly 128 neighbors.
        net = build_network("F-PointNet")
        ks = [op.k for op in net.trace("original").by_type(NeighborSearchOp)]
        assert max(ks) == 128

    def test_trace_matches_execution_emission(self):
        # The analytic trace and the trace emitted during execution agree
        # on MLP MAC totals at matching scale.
        net = toy("PointNet++ (c)")
        analytic = net.trace("delayed")
        from repro.profiling.trace import Trace

        runtime = Trace(net.name, "delayed")
        net(cloud_for(net), strategy="delayed", trace=runtime)
        assert runtime.mlp_macs() == analytic.mlp_macs()

    def test_module_count_by_network(self):
        counts = {
            "PointNet++ (c)": 3,
            "DGCNN (c)": 4,
            "LDGCNN": 4,
        }
        for name, expected in counts.items():
            net = build_network(name)
            assert len(net.encoder) == expected

    def test_mac_reduction_range_matches_paper(self):
        # Fig 9: average reduction ~68% over the five profiled networks.
        reductions = []
        for name in PROFILED_NETWORKS:
            net = build_network(name)
            orig = net.trace("original").mlp_macs()
            delayed = net.trace("delayed").mlp_macs()
            reductions.append(1 - delayed / orig)
        avg = float(np.mean(reductions))
        assert 0.5 < avg < 0.8


class TestSegmentationDecoder:
    def test_feature_propagation_shapes(self):
        from repro.networks import FeaturePropagation
        from repro.neural import Tensor

        rng = np.random.default_rng(0)
        fp = FeaturePropagation("fp", 32, (8 + 16, 16), rng=rng)
        fine = rng.normal(size=(32, 3))
        coarse = rng.normal(size=(8, 3))
        out = fp(fine, Tensor(rng.normal(size=(32, 8))), coarse,
                 Tensor(rng.normal(size=(8, 16))))
        assert out.shape == (32, 16)

    @pytest.mark.parametrize("skip", [True, False])
    def test_forward_is_forward_batch_of_a_stack_of_one(self, skip):
        # A cloud is a stack of one at the decoder door too — with and
        # without skip features (``fine_feats=None`` is the first
        # decoder level), outputs and parameter gradients bit for bit.
        from repro.networks import FeaturePropagation
        from repro.neural import Tensor

        rng = np.random.default_rng(1)
        fine = rng.normal(size=(32, 3))
        coarse = rng.normal(size=(8, 3))
        fine_data = rng.normal(size=(32, 8))
        coarse_data = rng.normal(size=(8, 16))

        def run(door):
            fp = FeaturePropagation("fp", 32, ((8 if skip else 0) + 16, 16),
                                    rng=np.random.default_rng(2))
            out = door(fp, Tensor(fine_data.copy()) if skip else None,
                       Tensor(coarse_data.copy()))
            out.sum().backward()
            return out, [p.grad for p in fp.parameters()]

        one, one_grads = run(
            lambda fp, ff, cf: fp(fine, ff, coarse, cf))
        stack, stack_grads = run(
            lambda fp, ff, cf: fp.forward_batch(fine[None], ff,
                                                coarse[None], cf))
        assert one.shape == (32, 16)
        assert np.array_equal(one.data, stack.data)
        assert len(one_grads) == len(stack_grads) > 0
        for a, b in zip(one_grads, stack_grads):
            assert np.array_equal(a, b)

    def test_interpolation_weights_prefer_near(self):
        from repro.networks import FeaturePropagation
        from repro.neural import Tensor

        fp = FeaturePropagation("fp", 1, (1, 1), rng=np.random.default_rng(0))
        fine = np.array([[0.0, 0.0, 0.0]])
        coarse = np.array([[0.01, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        feats = Tensor(np.array([[1.0], [100.0], [100.0]]))
        idx_out = fp(fine, None, coarse, feats)
        # Nearly all weight on the nearest coarse point.
        assert idx_out.data[0, 0] < 5.0
