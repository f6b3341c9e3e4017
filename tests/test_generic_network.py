"""Tests for the user-facing generic network builder."""

import numpy as np
import pytest

from repro.core import ModuleSpec
from repro.hw import SoC
from repro.networks.generic import (
    GenericPointCloudNetwork,
    validate_spec_chain,
)

SPECS = (
    ModuleSpec("e1", n_in=64, n_out=32, k=8, mlp_dims=(3, 16)),
    ModuleSpec("e2", n_in=32, n_out=8, k=8, mlp_dims=(16, 32)),
    ModuleSpec("e3", n_in=8, n_out=1, k=8, mlp_dims=(32, 64)),
)

SEG_SPECS = (
    ModuleSpec("s1", n_in=32, n_out=32, k=6, mlp_dims=(3, 16)),
    ModuleSpec("s2", n_in=32, n_out=32, k=6, mlp_dims=(16, 32)),
)


class TestSpecChainValidation:
    def test_valid_chain(self):
        assert validate_spec_chain(SPECS) == list(SPECS)

    def test_empty_chain(self):
        with pytest.raises(ValueError):
            validate_spec_chain([])

    def test_point_count_mismatch(self):
        bad = (SPECS[0],
               ModuleSpec("x", n_in=99, n_out=8, k=4, mlp_dims=(16, 32)))
        with pytest.raises(ValueError, match="n_in"):
            validate_spec_chain(bad)

    def test_width_mismatch(self):
        bad = (SPECS[0],
               ModuleSpec("x", n_in=32, n_out=8, k=4, mlp_dims=(99, 32)))
        with pytest.raises(ValueError, match="width"):
            validate_spec_chain(bad)


class TestConstruction:
    def test_head_width_checked(self):
        with pytest.raises(ValueError, match="head input width"):
            GenericPointCloudNetwork(SPECS, head_dims=(100, 4))

    def test_first_module_must_take_coords(self):
        bad = (ModuleSpec("e1", 64, 32, 8, (5, 16)),)
        with pytest.raises(ValueError, match="coordinates"):
            GenericPointCloudNetwork(bad, head_dims=(16, 4))

    def test_bad_task(self):
        with pytest.raises(ValueError, match="task"):
            GenericPointCloudNetwork(SPECS, head_dims=(64, 4), task="magic")

    def test_segmentation_requires_constant_count(self):
        with pytest.raises(ValueError, match="point count"):
            GenericPointCloudNetwork(SPECS, head_dims=(64, 4),
                                     task="segmentation")


class TestExecution:
    def test_classification_forward(self):
        net = GenericPointCloudNetwork(SPECS, head_dims=(64, 16, 4),
                                       rng=np.random.default_rng(0))
        pts = np.random.default_rng(1).normal(size=(64, 3))
        out = net(pts, strategy="delayed")
        assert out.shape == (1, 4)

    def test_segmentation_forward(self):
        net = GenericPointCloudNetwork(
            SEG_SPECS, head_dims=(32, 5), task="segmentation",
            rng=np.random.default_rng(0),
        )
        pts = np.random.default_rng(1).normal(size=(32, 3))
        out = net(pts, strategy="delayed")
        assert out.shape == (32, 5)

    def test_all_strategies(self):
        net = GenericPointCloudNetwork(SPECS, head_dims=(64, 4))
        pts = np.random.default_rng(2).normal(size=(64, 3))
        for strategy in ("original", "delayed", "limited"):
            assert np.isfinite(net(pts, strategy=strategy).data).all()

    def test_gradients_flow(self):
        net = GenericPointCloudNetwork(SPECS, head_dims=(64, 4))
        pts = np.random.default_rng(3).normal(size=(64, 3))
        out = net(pts, strategy="delayed")
        (out * out).sum().backward()
        assert all(p.grad is not None for p in net.parameters())


class TestIntegration:
    def test_trace_and_mac_reduction(self):
        net = GenericPointCloudNetwork(SPECS, head_dims=(64, 4))
        orig = net.trace("original")
        delayed = net.trace("delayed")
        assert delayed.mlp_macs() < orig.mlp_macs()
        assert len(orig.by_phase("N")) == 3

    def test_runs_on_soc(self):
        net = GenericPointCloudNetwork(SPECS, head_dims=(64, 4),
                                       name="tiny")
        soc = SoC()
        base = soc.simulate(net, "baseline")
        hw = soc.simulate(net, "mesorasi_hw")
        assert hw.latency < base.latency
        assert len(hw.au_stats) == 3
