"""Tests for roofline analysis and the SoC timeline."""

import pytest

from repro.hw import SoC, SoCConfig
from repro.hw.timeline import build_timeline, render_gantt
from repro.networks import build_network
from repro.profiling.roofline import (
    NPU_ROOF,
    TX2_ROOF,
    DeviceRoof,
    analyze_trace,
)


class TestRoofline:
    def test_ridge_point(self):
        roof = DeviceRoof("d", 100e9, 10e9)
        assert roof.ridge_intensity == pytest.approx(10.0)
        assert roof.attainable_flops(5.0) == pytest.approx(50e9)
        assert roof.attainable_flops(100.0) == pytest.approx(100e9)

    def test_intensity_validation(self):
        with pytest.raises(ValueError):
            TX2_ROOF.attainable_flops(-1)

    def test_analyze_trace_fractions_sum(self):
        net = build_network("PointNet++ (c)")
        _, summary = analyze_trace(net.trace("original"))
        assert summary["compute"] + summary["memory"] == pytest.approx(1.0)

    def test_delayed_more_compute_bound(self):
        # §IV-B: smaller activations raise arithmetic intensity.
        net = build_network("PointNet++ (s)")
        _, orig = analyze_trace(net.trace("original"))
        _, delayed = analyze_trace(net.trace("delayed"))
        assert delayed["compute"] >= orig["compute"]

    def test_gather_always_memory_bound(self):
        net = build_network("PointNet++ (c)")
        points, _ = analyze_trace(net.trace("delayed"), NPU_ROOF)
        gathers = [p for p in points if p.op_type == "GatherOp"]
        assert gathers
        assert all(p.bound(NPU_ROOF) == "memory" for p in gathers)


class TestTimeline:
    @classmethod
    def setup_class(cls):
        cls.soc = SoC()
        cls.net = build_network("PointNet++ (s)")

    def test_makespan_matches_simulator(self):
        # The timeline lays out the simulator's own per-module times, so
        # the two agree exactly, overlapped or not.
        limited = SoCConfig("limited overlap", strategy="limited",
                            use_npu=True, overlap=True)
        for cfg in ("baseline", "mesorasi_sw", "mesorasi_hw", limited):
            tl = build_timeline(self.soc, self.net, cfg)
            sim = self.soc.simulate(self.net, cfg)
            assert tl.makespan == sim.latency, cfg

    def test_overlap_only_with_delayed(self):
        baseline = build_timeline(self.soc, self.net, "baseline")
        hw = build_timeline(self.soc, self.net, "mesorasi_hw")
        assert baseline.overlap("GPU:N", "NPU:F") == pytest.approx(0.0)
        assert hw.overlap("GPU:N", "NPU:F") > 0.0

    def test_utilization_bounded(self):
        tl = build_timeline(self.soc, self.net, "mesorasi_hw")
        for engine in ("GPU:N", "NPU:F", "AU:A"):
            assert 0.0 < tl.utilization(engine) <= 1.0

    def test_gantt_renders(self):
        tl = build_timeline(self.soc, self.net, "mesorasi_hw")
        chart = render_gantt(tl, width=40)
        assert "GPU:N" in chart and "#" in chart

    def test_empty_timeline(self):
        from repro.hw.timeline import Timeline

        assert render_gantt(Timeline()) == "(empty timeline)"
        assert Timeline().makespan == 0.0
