"""Tests for the seven benchmark networks: construction, execution,
tracing, strategy equivalence and gradient flow."""

import numpy as np
import pytest

from conftest import cloud_for, interpret, toy
from repro.backend import compile_kernel_program
from repro.core import ModuleSpec, PointCloudModule, strided_centroids
from repro.networks import (
    ALL_NETWORKS,
    PROFILED_NETWORKS,
    PointCloudNetwork,
    build_network,
    scale_spec,
    table1_rows,
)
from repro.neural import SharedMLP
from repro.profiling.trace import NeighborSearchOp

SCALE = 0.0625  # 1/16 of paper scale keeps execution fast


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
        net = toy(name, scale=SCALE)
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
        net = toy(name, scale=SCALE)
        pts = cloud_for(net)
        for strategy in ("original", "delayed", "limited"):
            out = net(pts, strategy=strategy)
            assert np.isfinite(out.data).all()

    def test_wrong_input_shape_rejected(self):
        net = toy("PointNet++ (c)", scale=SCALE)
        with pytest.raises(ValueError):
            net(np.zeros((net.n_points + 1, 3)))

    def test_gradients_reach_all_parameters(self):
        net = toy("PointNet++ (c)", scale=SCALE)
        out = net(cloud_for(net), strategy="delayed")
        (out * out).sum().backward()
        grads = [p.grad is not None for p in net.parameters()]
        assert all(grads) and len(grads) > 10

    def test_fpointnet_parameters_include_box_stage(self):
        net = toy("F-PointNet", scale=SCALE)
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


class DecoderToy(PointCloudNetwork):
    """One 32 -> 8 module and one decoder level back onto its 32 points.

    The coarse features are the 8 centroids' own coordinates, so an
    interpolated row is a weighted mean of coarse points; it is an
    output beside the decoded rows.
    """

    name = "decoder toy"
    task = "segmentation"

    def __init__(self):
        rng = np.random.default_rng(0)
        spec = ModuleSpec("sa", n_in=32, n_out=8, k=4, mlp_dims=(3, 16))
        super().__init__([PointCloudModule(spec, rng=rng)])
        self.fp = SharedMLP([3 + 3, 16], rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        _, (coarse, _) = nb.encoder(self.encoder, coords, feats)
        decoded = nb.propagate(self.fp, "fp", coords, feats, coarse,
                               nb.lift(coarse))
        nb.output(nb.graph.only("interpolate").id, name="interpolated",
                  per_point=True)
        nb.output(decoded, name="decoded", per_point=True)


def decode(net, clouds):
    """The interpreter's and the float64 program's outputs, held equal."""
    interpreted = interpret(net, clouds)
    program = compile_kernel_program(net, backend="float64").run(clouds)
    for name, value in program.items():
        np.testing.assert_array_equal(value.data, interpreted[name])
    return interpreted


class TestSegmentationDecoder:
    def test_feature_propagation_shapes(self):
        net = DecoderToy()
        out = decode(net, np.random.default_rng(0).normal(size=(3, 32, 3)))
        assert out["interpolated"].shape == (3, 32, 3)
        assert out["decoded"].shape == (3, 32, 16)

    def test_interpolation_weights_prefer_near(self):
        net = DecoderToy()
        cloud = np.random.default_rng(1).uniform(200.0, 300.0, size=(32, 3))
        centroids = strided_centroids(32, 8)
        near, mid, far = centroids[:3]
        cloud[near], cloud[mid], cloud[far] = (0.01, 0, 0), (10, 0, 0), (20, 0, 0)
        fine = next(i for i in range(32) if i not in centroids)
        cloud[fine] = 0.0
        out = decode(net, cloud[None])["interpolated"][0]
        # Nearly all weight on the nearest coarse point, where the mean
        # of the three would sit at x = 10 ...
        assert np.abs(out[fine] - cloud[near]).max() < 0.05
        # ... and all but rounding on a coarse point it coincides with.
        np.testing.assert_allclose(out[centroids], cloud[centroids],
                                   rtol=1e-6, atol=1e-6)
