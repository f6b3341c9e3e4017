"""Tests for traces, cost analytics and the CNN MAC models."""

import pytest

from repro.networks import build_network
from repro.profiling import (
    CNN_MODELS,
    ConvLayer,
    FCLayer,
    GatherOp,
    MatMulOp,
    NeighborSearchOp,
    Trace,
    compare_strategies,
    mac_reduction_percent,
)
from repro.profiling.cost_model import layer_size_stats_from_sizes


class TestOpRecords:
    def test_matmul_macs(self):
        op = MatMulOp("F", "m", rows=10, in_dim=4, out_dim=8)
        assert op.macs == 320
        assert op.output_bytes == 10 * 8 * 4

    def test_neighbor_search_costs(self):
        op = NeighborSearchOp("N", "m", n_queries=8, n_points=64, k=4, dim=3)
        assert op.bytes_written == 8 * 4 * 4
        assert op.macs == 0

    def test_gather_table_bytes(self):
        op = GatherOp("A", "m", n_centroids=8, k=4, feature_dim=16,
                      table_rows=100)
        assert op.table_bytes == 100 * 16 * 4

    def test_trace_phase_filter(self):
        t = Trace()
        t.add(MatMulOp("F", "m", rows=1, in_dim=1, out_dim=1))
        t.add(NeighborSearchOp("N", "m", n_queries=1, n_points=2, k=1))
        assert len(t.by_phase("F")) == 1
        assert len(t.by_phase("N")) == 1
        with pytest.raises(ValueError):
            t.by_phase("X")


class TestCostModel:
    def test_compare_strategies(self):
        cmp = compare_strategies(build_network("PointNet++ (c)"))
        assert cmp.mac_reduction_percent > 50.0
        assert cmp.max_layer_output_delayed < cmp.max_layer_output_original

    def test_mac_reduction_helper(self):
        net = build_network("DGCNN (c)")
        assert mac_reduction_percent(net) == pytest.approx(
            compare_strategies(net).mac_reduction_percent
        )

    def test_layer_size_stats(self):
        t = build_network("PointNet++ (s)").trace("original")
        stats = layer_size_stats_from_sizes(t.layer_output_sizes())
        assert stats["min"] <= stats["median"] <= stats["max"]
        # Fig 10: original layer outputs reach the multi-MB regime.
        assert stats["max"] > 2 * 2 ** 20

    def test_delayed_layer_sizes_fit_on_chip(self):
        # Fig 10: delayed outputs drop to the 512 KB - 1 MB regime.
        t = build_network("PointNet++ (s)").trace("delayed")
        stats = layer_size_stats_from_sizes(t.layer_output_sizes())
        assert stats["max"] <= 1.5 * 2 ** 20

    def test_layer_size_stats_pool_networks(self):
        nets = [build_network(n) for n in ("PointNet++ (c)", "DGCNN (c)")]
        sizes = [s for n in nets for s in n.trace("original").layer_output_sizes()]
        stats = layer_size_stats_from_sizes(sizes)
        assert len(stats["sizes"]) == len(sizes) > 5
        assert stats["mean"] == pytest.approx(sum(sizes) / len(sizes))

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            layer_size_stats_from_sizes(Trace().layer_output_sizes())

    def test_gather_working_set_growth(self):
        # §IV-C: the delayed gather table is Mout/Min times larger.
        net = build_network("PointNet++ (c)")
        orig, delayed = (
            [op.table_bytes for op in net.trace(s).by_type(GatherOp)]
            for s in ("original", "delayed")
        )
        assert delayed[0] / orig[0] == pytest.approx(128 / 3)


class TestCNNModels:
    def test_conv_macs(self):
        conv = ConvLayer(3, 64, 11, stride=4)
        # 56x56 output at 224 input: 56*56*64*3*11*11
        assert conv.macs(224) == 56 * 56 * 64 * 3 * 121

    def test_fc_macs(self):
        assert FCLayer(100, 10).macs() == 1000

    def test_alexnet_canonical_macs(self):
        macs = CNN_MODELS["AlexNet"]().total_macs()
        assert 0.5e9 < macs < 1.2e9  # published ~0.7 GMACs

    def test_resnet50_canonical_macs(self):
        macs = CNN_MODELS["ResNet-50"]().total_macs()
        assert 3e9 < macs < 5.5e9  # published ~4.1 GMACs

    def test_yolov2_canonical_macs(self):
        macs = CNN_MODELS["YOLOv2"]().total_macs()
        assert 10e9 < macs < 25e9  # published ~17 GMACs

    def test_macs_scale_with_pixels(self):
        model = CNN_MODELS["ResNet-50"]()
        low = model.macs_at_pixels(130_000 // 4)
        high = model.macs_at_pixels(130_000)
        assert high / low == pytest.approx(4.0, rel=0.1)

    def test_fig7_order_of_magnitude_gap(self):
        # Fig 7: point cloud networks at 130K points have ~10x the MACs
        # of CNNs at 130K pixels.
        pixels = 130_000
        cnn_max = max(
            m().macs_at_pixels(pixels) for m in CNN_MODELS.values()
        )
        net = build_network(
            "PointNet++ (c)",
            scale=pixels / build_network("PointNet++ (c)").paper_n_points,
        )
        pc_macs = net.trace("original").mlp_macs()
        assert pc_macs > 3 * cnn_max
