"""Fig 22: AU energy vs NIT/PFT buffer sizes (PointNet++ (s)).

Paper: shrinking the buffers raises AU energy (up to 32x at 8 KB PFT /
3 KB NIT) because a smaller PFT forces more column partitions, each of
which re-reads the whole NIT; growing them trades area for a small
energy win.  The nominal 64 KB / 12 KB point balances the two.
"""

from conftest import print_table

from repro.hw import AggregationUnit, SRAM, network_nits
from repro.networks import build_network

PFT_SIZES = (8, 16, 32, 64, 128, 256)
NIT_SIZES = (3, 6, 12, 24, 48, 96)


def _au_energy(net, nits, pft_kb, nit_kb):
    au = AggregationUnit(
        pft_buffer=SRAM(pft_kb, banks=32, name="pft"),
        nit_buffer=SRAM(nit_kb, banks=1, name="nit"),
    )
    total = 0.0
    for module in net.encoder:
        spec = module.spec
        total += au.process(nits[spec.name], spec.out_dim, spec.n_in).energy
    return total


def test_fig22_buffer_sensitivity(benchmark):
    net = build_network("PointNet++ (s)")
    nits = network_nits(net, "delayed")

    def run():
        grid = {}
        for pft in PFT_SIZES:
            for nit in NIT_SIZES:
                grid[(pft, nit)] = _au_energy(net, nits, pft, nit)
        return grid

    grid = benchmark(run)
    nominal = grid[(64, 12)]
    rows = []
    for pft in PFT_SIZES:
        rows.append(
            (f"{pft} KB",
             *(f"{grid[(pft, nit)] / nominal:.2f}" for nit in NIT_SIZES))
        )
    print_table(
        "Fig 22: AU energy normalized to the nominal design (PFT rows, "
        "NIT cols)",
        ["PFT \\ NIT"] + [f"{n} KB" for n in NIT_SIZES],
        rows,
    )
    # Smaller PFT => more partitions => more energy; same along the NIT
    # axis (more DRAM re-reads).  A ~10% tolerance allows the flat
    # saturated corner of the grid (as in the paper's 0.1/0.1 cells).
    for nit in NIT_SIZES:
        col = [grid[(pft, nit)] for pft in PFT_SIZES]
        assert all(a >= 0.8 * b for a, b in zip(col, col[1:]))
    for pft in PFT_SIZES:
        row = [grid[(pft, nit)] for nit in NIT_SIZES]
        assert all(a >= 0.8 * b for a, b in zip(row, row[1:]))
    # The extreme corner costs many times the nominal energy (paper:
    # 31.8x), and the largest buffers drop well below it (paper: 0.1x).
    assert grid[(8, 3)] / nominal > 4.0
    assert grid[(256, 96)] / nominal < 0.6
