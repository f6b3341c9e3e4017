"""Tests for the hardware models: DRAM, SRAM, GPU, NPU, AU, NSE, SoC."""

import numpy as np
import pytest

from repro.hw import (
    CONFIGS,
    LPDDR3,
    AggregationUnit,
    MobileGPU,
    NeighborSearchEngine,
    SRAM,
    SoC,
    SystolicNPU,
    crossbar_area_mm2,
    network_nits,
)
from repro.networks import build_network
from repro.profiling.trace import (
    GatherOp,
    MatMulOp,
    NeighborSearchOp,
)


class TestDRAM:
    def test_transfer_time(self):
        assert LPDDR3.transfer_time(25.6e9) == pytest.approx(1.0)

    def test_energy_70x_sram(self):
        sram = SRAM(64)
        dram_per_bit = LPDDR3.energy_per_byte / 8
        sram_per_bit = sram.read_energy_per_word() / 32
        assert 40 < dram_per_bit / sram_per_bit < 120  # paper: ~70x

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LPDDR3.transfer_time(-1)
        with pytest.raises(ValueError):
            LPDDR3.transfer_energy(-1)


class TestSRAM:
    def test_pft_buffer_area_matches_paper(self):
        # §VII-A: the 64 KB, 32-bank PFT buffer is 0.031 mm^2.
        pft = SRAM(64, banks=32)
        assert pft.area_mm2() == pytest.approx(0.031, rel=0.05)

    def test_avoided_crossbar_area_matches_paper(self):
        # §VII-A: a 32x32 crossbar would be 0.064 mm^2.
        assert crossbar_area_mm2(32) == pytest.approx(0.064, rel=0.02)

    def test_area_scales_with_capacity(self):
        assert SRAM(128).area_mm2() > SRAM(64).area_mm2()

    def test_energy_grows_with_bank_size(self):
        assert SRAM(256, banks=1).read_energy_per_word() > \
            SRAM(256, banks=32).read_energy_per_word()

    def test_validation(self):
        with pytest.raises(ValueError):
            SRAM(0)
        with pytest.raises(ValueError):
            SRAM(64, banks=0)


class TestGPU:
    def setup_method(self):
        self.gpu = MobileGPU()

    def test_matmul_time_scales(self):
        small = self.gpu.op_time(MatMulOp("F", "m", rows=100, in_dim=64, out_dim=64))
        large = self.gpu.op_time(MatMulOp("F", "m", rows=10000, in_dim=64, out_dim=64))
        assert large > small

    def test_gather_spill_penalty(self):
        fits = GatherOp("A", "m", n_centroids=100, k=8, feature_dim=3,
                        table_rows=1000)  # 12 KB table
        spills = GatherOp("A", "m", n_centroids=100, k=8, feature_dim=300,
                          table_rows=1000)  # 1.2 MB table
        t_fits = self.gpu.op_time(fits) - self.gpu.kernel_launch_s
        t_spills = self.gpu.op_time(spills) - self.gpu.kernel_launch_s
        bytes_fit = fits.bytes_read + fits.bytes_written
        bytes_spill = spills.bytes_read + spills.bytes_written
        # Per-byte cost is higher once the table exceeds L1.
        assert t_spills / bytes_spill > t_fits / bytes_fit

    def test_feature_space_search_expensive(self):
        # The DGCNN effect: searching a 256-D feature space costs much
        # more than a 3-D coordinate search of the same extent.
        coords = NeighborSearchOp("N", "m", n_queries=1024, n_points=1024,
                                  k=20, dim=3)
        feats = NeighborSearchOp("N", "m", n_queries=1024, n_points=1024,
                                 k=20, dim=256)
        assert self.gpu.op_time(feats) > 5 * self.gpu.op_time(coords)

    def test_run_collects_phases(self):
        trace = build_network("PointNet++ (s)").trace("original")
        result = self.gpu.run(trace)
        assert result.total_time > 0
        assert result.phase_times["N"] > 0
        assert result.phase_times["F"] > result.phase_times["A"]

    def test_pointnet_s_calibration(self):
        # Calibrated against Fig 11: N ~= 10 ms, F ~= 25 ms (original).
        trace = build_network("PointNet++ (s)").trace("original")
        result = self.gpu.run(trace)
        assert 3e-3 < result.phase_times["N"] < 20e-3
        assert 15e-3 < result.phase_times["F"] < 40e-3

    def test_unknown_op_rejected(self):
        class Weird:
            phase = "F"

        with pytest.raises(TypeError):
            self.gpu.op_time(Weird())

    def test_energy_positive_and_includes_dram(self):
        trace = build_network("PointNet++ (c)").trace("original")
        result = self.gpu.run(trace)
        assert result.energy > 0
        assert result.dram_bytes > 0


class TestNPU:
    def setup_method(self):
        self.npu = SystolicNPU()

    def test_matmul_cycles_formula(self):
        # 1 in-tile, 4 out-tiles, 2048 rows: 4 * (2048 + 32).
        assert self.npu.matmul_cycles(2048, 3, 64) == 4 * 2080

    def test_cycles_validation(self):
        with pytest.raises(ValueError):
            self.npu.matmul_cycles(0, 3, 64)

    def test_large_array_faster(self):
        big = SystolicNPU(array_dim=48)
        op_cycles = self.npu.matmul_cycles(4096, 128, 128)
        assert big.matmul_cycles(4096, 128, 128) < op_cycles

    def test_spill_traffic(self):
        small = MatMulOp("F", "m", rows=100, in_dim=64, out_dim=64)
        huge = MatMulOp("F", "m", rows=100000, in_dim=64, out_dim=64)
        assert self.npu.matmul_dram_bytes(small) == 0
        assert self.npu.matmul_dram_bytes(huge) > 0

    def test_npu_faster_than_gpu_on_mlp(self):
        gpu = MobileGPU()
        trace = build_network("PointNet++ (c)").trace("original")
        matmuls = trace.by_type(MatMulOp)
        npu_time = sum(self.npu.run_matmul(op).time for op in matmuls)
        gpu_time = sum(gpu.op_time(op) for op in matmuls)
        assert npu_time < gpu_time / 2

    def test_area_and_au_overhead(self):
        # §VII-A: the AU adds < 3.8% to the NPU area.
        au = AggregationUnit()
        ratio = au.area_mm2() / self.npu.area_mm2()
        assert ratio < 0.045
        assert au.area_mm2() == pytest.approx(0.059, rel=0.1)


class TestAggregationUnit:
    def setup_method(self):
        self.au = AggregationUnit()

    def test_no_conflict_single_round(self):
        # Indices hitting distinct banks: one round.
        idx = np.arange(32).reshape(1, 32)
        assert self.au.entry_rounds(idx[0]) == 1

    def test_worst_case_conflicts(self):
        # All indices in one bank: K rounds.
        idx = (np.arange(16) * 32).reshape(1, 16)
        assert self.au.entry_rounds(idx[0]) == 16

    def test_process_accounting(self):
        rng = np.random.default_rng(0)
        nit = rng.integers(0, 1024, size=(64, 32))
        r = self.au.process(nit, feature_dim=128, n_points=1024)
        assert r.cycles > 0
        assert r.pft_word_reads == 64 * 33 * 128
        assert r.total_rounds >= r.ideal_rounds
        assert 0.0 <= r.conflict_fraction < 1.0

    def test_partitioning_kicks_in(self):
        # 2048 x 128 floats = 1 MB > 64 KB buffer -> multiple partitions.
        parts = self.au.n_partitions(2048, 128)
        assert parts == 16  # 16K words / 2048 rows = 8 cols per partition

    def test_partition_multiplies_nit_traffic(self):
        # §VII-F: NIT entries that no longer fit in the NIT buffer are
        # re-fetched from DRAM once per partition pass.
        rng = np.random.default_rng(1)
        nit = rng.integers(0, 2048, size=(1024, 16))  # 100 KB of entries
        big = AggregationUnit(pft_buffer=SRAM(256, banks=32))
        small = AggregationUnit(pft_buffer=SRAM(16, banks=32))
        r_big = big.process(nit, 128, 2048)
        r_small = small.process(nit, 128, 2048)
        assert r_small.partitions > r_big.partitions
        assert r_small.nit_dram_bytes > r_big.nit_dram_bytes

    def test_nit_fitting_in_buffer_avoids_refetch(self):
        rng = np.random.default_rng(3)
        nit = rng.integers(0, 2048, size=(64, 16))  # ~6 KB of entries
        au = AggregationUnit(pft_buffer=SRAM(16, banks=32))  # many parts
        r = au.process(nit, 128, 2048)
        assert r.partitions > 1
        # Whole NIT resident in the double buffer: one DRAM pass only.
        assert r.nit_dram_bytes == 64 * 98

    def test_smaller_buffers_cost_more_energy(self):
        # Fig 22's diagonal trend.
        rng = np.random.default_rng(2)
        nit = rng.integers(0, 2048, size=(128, 32))
        nominal = AggregationUnit()
        tiny = AggregationUnit(pft_buffer=SRAM(8, banks=32),
                               nit_buffer=SRAM(3))
        assert tiny.process(nit, 128, 2048).energy > \
            nominal.process(nit, 128, 2048).energy

    def test_realistic_conflicts_moderate(self):
        # On the NIT a network's own search writes over a scan-ordered
        # cloud, LSB interleaving keeps the slowdown well below the
        # random-stream worst case.
        nit = network_nits(build_network("PointNet++ (c)"), "delayed")["sa1"]
        r = self.au.process(nit, 128, 1024)
        assert r.slowdown_vs_ideal < 3.5

    def test_bad_nit_shape(self):
        with pytest.raises(ValueError):
            self.au.process(np.zeros(5, dtype=int), 8, 16)


class TestNSE:
    def test_speedup(self):
        nse = NeighborSearchEngine()
        assert nse.search_time(60.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborSearchEngine(speedup_over_gpu=0)

    def test_energy_below_gpu(self):
        nse = NeighborSearchEngine()
        gpu_energy = 1.0 * 6.5  # 1 s at GPU search power
        assert nse.search_energy(1.0) < gpu_energy / 50


class TestSoC:
    @classmethod
    def setup_class(cls):
        cls.soc = SoC()
        cls.results = {}
        for name in ("PointNet++ (c)", "PointNet++ (s)", "DGCNN (s)"):
            net = build_network(name)
            cls.results[name] = {
                cfg: cls.soc.simulate(net, cfg)
                for cfg in ("gpu", "baseline", "mesorasi_sw", "mesorasi_hw",
                            "baseline_nse", "mesorasi_hw_nse")
            }

    def test_config_registry(self):
        assert set(CONFIGS) >= {
            "gpu", "baseline", "mesorasi_sw", "mesorasi_hw",
            "baseline_nse", "mesorasi_sw_nse", "mesorasi_hw_nse",
        }

    def test_baseline_beats_gpu(self):
        # §VII-D: the GPU+NPU baseline is ~2x faster than GPU alone.
        for name, r in self.results.items():
            assert r["baseline"].latency < r["gpu"].latency

    def test_sw_beats_baseline(self):
        for name, r in self.results.items():
            assert r["mesorasi_sw"].latency <= r["baseline"].latency * 1.02

    def test_hw_beats_sw(self):
        for name, r in self.results.items():
            assert r["mesorasi_hw"].latency < r["mesorasi_sw"].latency

    def test_hw_speedup_in_paper_range(self):
        # Fig 18a: up to 3.6x over the baseline; DGCNN (s) barely gains
        # because neighbor search dominates its runtime.
        for name, r in self.results.items():
            speedup = r["baseline"].latency / r["mesorasi_hw"].latency
            assert 1.01 < speedup < 4.5, (name, speedup)

    def test_hw_saves_energy(self):
        # Fig 18b.
        for name, r in self.results.items():
            assert r["mesorasi_hw"].energy < r["baseline"].energy

    def test_nse_amplifies_speedup(self):
        # Fig 20: with neighbor search accelerated, Mesorasi's speedup
        # over the (also NSE-enabled) baseline grows.
        for name, r in self.results.items():
            plain = r["baseline"].latency / r["mesorasi_hw"].latency
            with_nse = r["baseline_nse"].latency / r["mesorasi_hw_nse"].latency
            assert with_nse > plain

    def test_au_stats_emitted(self):
        stats = self.results["PointNet++ (c)"]["mesorasi_hw"].au_stats
        assert len(stats) == 3  # one per SA module

    def test_feature_space_conflicts_rise_with_depth(self):
        # DGCNN searches feature space: deeper EdgeConv layers pick
        # neighbors by learned features, not position, so their indices
        # lose the scan order's locality and the AU's bank conflicts grow.
        r = self.soc.simulate(build_network("DGCNN (c)"), "mesorasi_hw")
        conflicts = [stats.conflict_fraction for _, stats in r.au_stats]
        assert len(conflicts) == 4
        assert all(a < b for a, b in zip(conflicts, conflicts[1:])), conflicts

    def test_speedup_helpers(self):
        r = self.results["PointNet++ (c)"]
        assert r["baseline"].latency / r["mesorasi_hw"].latency > 1.0
        assert r["mesorasi_hw"].energy_reduction_over(r["baseline"]) > 0.0

    def test_smaller_systolic_array_higher_speedup(self):
        # Fig 21: speedup decreases as the SA grows.
        net = build_network("PointNet++ (s)")
        small = SoC(npu=SystolicNPU(array_dim=8))
        large = SoC(npu=SystolicNPU(array_dim=48))
        s_small = small.simulate(net, "baseline").latency / \
            small.simulate(net, "mesorasi_hw").latency
        s_large = large.simulate(net, "baseline").latency / \
            large.simulate(net, "mesorasi_hw").latency
        assert s_small > s_large

    def test_config_by_object(self):
        from repro.hw import SoCConfig

        cfg = SoCConfig("custom", strategy="delayed", use_npu=True)
        r = self.soc.simulate(build_network("PointNet++ (c)"), cfg)
        assert r.config == "custom"
