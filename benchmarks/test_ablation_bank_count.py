"""Ablation: PFT buffer bank count.

The paper fixes B=32 banks, noting that "the number of banks B is
limited by the peripheral circuits overhead" while fewer banks raise
bank conflicts.  This ablation sweeps B and shows the latency/area
trade-off that motivates the nominal choice.
"""

from conftest import print_table

from repro.hw import AggregationUnit, SRAM, network_nits
from repro.networks import build_network

BANKS = (4, 8, 16, 32, 64)


def test_ablation_bank_count(benchmark):
    net = build_network("PointNet++ (c)")
    spec = net.encoder[0].spec
    nit = network_nits(net, "delayed")[spec.name]

    def run():
        out = {}
        for banks in BANKS:
            au = AggregationUnit(pft_buffer=SRAM(64, banks=banks, name="pft"))
            r = au.process(nit, spec.out_dim, spec.n_in)
            out[banks] = (r.cycles, r.conflict_fraction, au.area_mm2())
        return out

    data = benchmark(run)
    print_table(
        "Ablation: PFT bank count (PointNet++ module 1)",
        ["Banks", "Cycles", "Conflict rounds", "AU area (mm^2)"],
        [
            (b, data[b][0], f"{data[b][1] * 100:.0f}%", f"{data[b][2]:.3f}")
            for b in BANKS
        ],
    )
    cycles = [data[b][0] for b in BANKS]
    areas = [data[b][2] for b in BANKS]
    # More banks -> fewer cycles (more parallel gather lanes)...
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))
    # ...at more peripheral area.
    assert all(a <= b for a, b in zip(areas, areas[1:]))
    # Diminishing returns: 32 -> 64 banks buys less than 8 -> 16.
    gain_8_16 = data[8][0] / data[16][0]
    gain_32_64 = data[32][0] / data[64][0]
    assert gain_8_16 > gain_32_64
