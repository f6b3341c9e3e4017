"""Tests for file I/O, LR schedulers, roofline analysis and timelines."""

import numpy as np
import pytest

from repro.data.io import (
    load_points,
    read_off,
    read_ply,
    read_xyz,
    save_points,
    write_off,
    write_ply,
    write_xyz,
)
from repro.hw import SoC, SoCConfig
from repro.hw.timeline import build_timeline, render_gantt
from repro.networks import build_network
from repro.neural import SGD
from repro.neural.layers import Parameter
from repro.neural.schedulers import (
    CosineLR,
    ExponentialLR,
    StepLR,
    clip_grad_norm,
)
from repro.profiling.roofline import (
    NPU_ROOF,
    TX2_ROOF,
    DeviceRoof,
    analyze_trace,
)


def cloud(n=20, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestXYZ:
    def test_roundtrip(self, tmp_path):
        pts = cloud()
        path = tmp_path / "cloud.xyz"
        write_xyz(path, pts)
        np.testing.assert_allclose(read_xyz(path), pts, rtol=1e-6)

    def test_extra_columns_preserved(self, tmp_path):
        pts = cloud(10, 5)
        path = tmp_path / "cloud.xyz"
        write_xyz(path, pts)
        assert read_xyz(path).shape == (10, 5)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_xyz(tmp_path / "bad.xyz", np.zeros((4, 2)))


class TestOFF:
    def test_roundtrip_with_faces(self, tmp_path):
        pts = cloud(8)
        faces = np.array([[0, 1, 2], [2, 3, 4]])
        path = tmp_path / "mesh.off"
        write_off(path, pts, faces)
        v, f = read_off(path)
        np.testing.assert_allclose(v, pts, rtol=1e-6)
        np.testing.assert_array_equal(f, faces)

    def test_vertices_only(self, tmp_path):
        path = tmp_path / "points.off"
        write_off(path, cloud(5))
        v, f = read_off(path)
        assert v.shape == (5, 3)
        assert len(f) == 0

    def test_modelnet_malformed_header(self, tmp_path):
        # ModelNet ships files like "OFF492 982 0" on one line.
        path = tmp_path / "weird.off"
        path.write_text("OFF2 0 0\n0 0 0\n1 1 1\n")
        v, _ = read_off(path)
        assert v.shape == (2, 3)

    def test_not_off(self, tmp_path):
        path = tmp_path / "nope.off"
        path.write_text("PLY\n")
        with pytest.raises(ValueError):
            read_off(path)


class TestPLY:
    def test_roundtrip(self, tmp_path):
        pts = cloud(12)
        path = tmp_path / "cloud.ply"
        write_ply(path, pts)
        out, props = read_ply(path)
        np.testing.assert_allclose(out, pts, rtol=1e-6)
        assert props == ("x", "y", "z")

    def test_extra_properties(self, tmp_path):
        pts = cloud(6, 4)
        path = tmp_path / "cloud.ply"
        write_ply(path, pts, extra_properties=("intensity",))
        out, props = read_ply(path)
        assert props == ("x", "y", "z", "intensity")
        np.testing.assert_allclose(out, pts, rtol=1e-6)

    def test_property_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_ply(tmp_path / "bad.ply", cloud(4, 5))

    def test_not_ply(self, tmp_path):
        path = tmp_path / "nope.ply"
        path.write_text("OFF\n")
        with pytest.raises(ValueError):
            read_ply(path)


class TestDispatch:
    @pytest.mark.parametrize("name", ["a.xyz", "a.ply", "a.off"])
    def test_load_save_roundtrip(self, tmp_path, name):
        pts = cloud(9)
        path = tmp_path / name
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts, rtol=1e-6)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            save_points(tmp_path / "cloud.pcdx", cloud())
        with pytest.raises(ValueError):
            load_points(tmp_path / "cloud.pcdx")


class TestSchedulers:
    def _opt(self, lr=1.0):
        return SGD([Parameter(np.zeros(1))], lr=lr)

    def test_step_lr(self):
        sched = StepLR(self._opt(), step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_exponential_lr(self):
        sched = ExponentialLR(self._opt(), gamma=0.5)
        assert sched.step() == pytest.approx(0.5)
        assert sched.step() == pytest.approx(0.25)

    def test_cosine_lr_endpoints(self):
        opt = self._opt()
        sched = CosineLR(opt, total=10, min_lr=0.1)
        for _ in range(10):
            last = sched.step()
        assert last == pytest.approx(0.1)
        # Stays at the floor beyond the horizon.
        assert sched.step() == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLR(self._opt(), step_size=0)
        with pytest.raises(ValueError):
            CosineLR(self._opt(), total=0)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 3.0)  # norm 6
        pre = clip_grad_norm([p], max_norm=3.0)
        assert pre == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(3.0, rel=1e-6)

    def test_clip_noop_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_clip_validation(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


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
