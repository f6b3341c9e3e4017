"""Detailed accounting tests for the SoC composition layer."""

from dataclasses import replace

import pytest

from repro.hw import (
    CONFIGS,
    MobileGPU,
    NeighborSearchEngine,
    SoC,
    SoCConfig,
    SystolicNPU,
    network_nits,
)
from repro.networks import ALL_NETWORKS, build_network


@pytest.fixture(scope="module")
def net():
    return build_network("PointNet++ (c)")


class TestPhaseAccounting:
    def test_energy_split_covers_all_phases(self, net):
        soc = SoC()
        r = soc.simulate(net, "mesorasi_hw")
        assert all(r.phase_energy[p] >= 0 for p in "NAFO")
        assert r.energy >= sum(r.phase_energy.values())  # + DRAM term

    def test_latency_at_most_sum_of_phases(self, net):
        soc = SoC()
        r = soc.simulate(net, "mesorasi_hw")
        assert r.latency <= sum(r.phase_times.values()) + 1e-12

    def test_serial_config_latency_is_sum(self, net):
        soc = SoC()
        r = soc.simulate(net, "baseline")
        assert r.latency == pytest.approx(sum(r.phase_times.values()))

    def test_overlap_saves_latency(self, net):
        soc = SoC()
        overlap = soc.simulate(net, "mesorasi_sw")
        serial_cfg = SoCConfig("serial", strategy="delayed", use_npu=True,
                               overlap=False)
        serial = soc.simulate(net, serial_cfg)
        assert overlap.latency <= serial.latency
        # Phase totals are identical; only the composition differs.
        for p in "NAFO":
            assert overlap.phase_times[p] == pytest.approx(
                serial.phase_times[p]
            )


class TestOverlapFollowsTheFlags:
    """The SoC overlaps only the ops the strategy passes flag."""

    @staticmethod
    def overlap_and_serial(name, strategy):
        soc, net = SoC(), build_network(name)
        config = SoCConfig(strategy, strategy=strategy, use_npu=True)
        return (soc.simulate(net, replace(config, overlap=True)),
                soc.simulate(net, config))

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_original_order_overlaps_nothing(self, name):
        # Under original order every MLP consumes the search's output,
        # so turning overlap on cannot hide any time.
        overlap, serial = self.overlap_and_serial(name, "original")
        assert overlap.latency == serial.latency

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_limited_hides_at_most_the_flagged_product(self, name):
        # Limited delay frees only the first product of each module; the
        # slack covers the different summation order of the two sides.
        overlap, serial = self.overlap_and_serial(name, "limited")
        flagged_f = sum(m.f_par for m in serial.modules)
        assert flagged_f > 0
        assert overlap.latency < serial.latency
        assert overlap.latency >= (serial.latency - flagged_f) * (1 - 1e-12)

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_delayed_flags_every_search_and_product(self, name):
        # Every module that searches runs its whole N and F side by side,
        # so the Mesorasi configurations compose max(N, F) as before.
        r = SoC().simulate(build_network(name), "mesorasi_sw")
        searching = [m for m in r.modules if m.n]
        assert searching
        for m in searching:
            assert (m.n_par, m.f_par) == (m.n, m.f)


class TestEngineSubstitution:
    def test_custom_gpu(self, net):
        fast = SoC(gpu=MobileGPU(matmul_macs_per_s=460e9))
        slow = SoC(gpu=MobileGPU(matmul_macs_per_s=4.6e9))
        assert fast.simulate(net, "gpu").latency < \
            slow.simulate(net, "gpu").latency

    def test_custom_nse_speedup(self, net):
        weak = SoC(nse=NeighborSearchEngine(speedup_over_gpu=2.0))
        strong = SoC(nse=NeighborSearchEngine(speedup_over_gpu=600.0))
        w = weak.simulate(net, "baseline_nse")
        s = strong.simulate(net, "baseline_nse")
        assert s.phase_times["N"] < w.phase_times["N"]

    def test_custom_npu_array(self, net):
        small = SoC(npu=SystolicNPU(array_dim=4))
        large = SoC(npu=SystolicNPU(array_dim=64))
        assert large.simulate(net, "baseline").phase_times["F"] < \
            small.simulate(net, "baseline").phase_times["F"]


class TestNetworkNITs:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_one_table_per_region_within_its_input(self, name):
        net = build_network(name)
        nits = network_nits(net, "delayed")
        modules = list(net.encoder) + list(getattr(net, "box_encoder", []))
        assert set(nits) == {m.spec.name for m in modules}
        for module in modules:
            spec, nit = module.spec, nits[module.spec.name]
            assert nit.shape == (spec.n_out, spec.k), spec.name
            assert 0 <= nit.min() and nit.max() < spec.n_in, spec.name


class TestConfigRegistry:
    def test_all_configs_simulate(self, net):
        soc = SoC()
        for name in CONFIGS:
            r = soc.simulate(net, name)
            assert r.latency > 0 and r.energy > 0, name

    def test_compare_builds_each_strategys_nits_once(self, net,
                                                     monkeypatch):
        import repro.hw.soc as soc_module

        calls = []

        def counting(network, strategy):
            calls.append(strategy)
            return network_nits(network, strategy)

        monkeypatch.setattr(soc_module, "network_nits", counting)
        soc = SoC()
        results = soc.compare(net, ("mesorasi_hw", "mesorasi_hw_nse"))
        assert calls == ["delayed"]
        # Sharing the NITs leaves every result as simulate computes it.
        monkeypatch.undo()
        for name, result in results.items():
            assert result == soc.simulate(net, name), name

    def test_au_only_with_use_au(self, net):
        soc = SoC()
        assert soc.simulate(net, "mesorasi_sw").au_stats == []
        assert len(soc.simulate(net, "mesorasi_hw").au_stats) > 0

    def test_nse_reduces_n_energy(self, net):
        soc = SoC()
        plain = soc.simulate(net, "baseline")
        nse = soc.simulate(net, "baseline_nse")
        assert nse.phase_energy["N"] < plain.phase_energy["N"]
