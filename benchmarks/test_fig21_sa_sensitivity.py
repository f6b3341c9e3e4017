"""Fig 21: sensitivity of Mesorasi-HW's gains to the systolic array size.

Paper (PointNet++ (s)): growing the array from 8x8 to 48x48 shrinks the
speedup from 2.8x to 1.2x (less feature-computation time left to save)
while the energy reduction improves slightly.
"""

from conftest import print_table

from repro.hw import CONFIGS, SoC, SystolicNPU, network_nits
from repro.networks import build_network

SIZES = (8, 16, 24, 32, 40, 48)


def test_fig21_sa_sensitivity(benchmark):
    net = build_network("PointNet++ (s)")

    def run():
        # The NITs depend on the network and strategy, not the SoC:
        # build them once and hand them to all six arrays.
        nits = network_nits(net, CONFIGS["mesorasi_hw"].strategy)
        out = {}
        for dim in SIZES:
            soc = SoC(npu=SystolicNPU(array_dim=dim))
            base = soc.simulate(net, "baseline")
            hw = soc.simulate(net, "mesorasi_hw", nits)
            out[dim] = (
                base.latency / hw.latency,
                hw.energy / base.energy,
            )
        return out

    data = benchmark(run)
    print_table(
        "Fig 21: PointNet++ (s) vs systolic array size",
        ["SA size", "Speedup", "Norm. energy"],
        [
            (f"{d}x{d}", f"{data[d][0]:.2f}", f"{data[d][1]:.2f}")
            for d in SIZES
        ],
    )
    speedups = [data[d][0] for d in SIZES]
    # Decreasing speedup with array size (small max()-boundary wiggles
    # in the overlap model are tolerated).
    assert all(a >= b - 0.05 for a, b in zip(speedups, speedups[1:]))
    assert speedups[0] > speedups[-1] * 1.15
    # Speedup persists even on the largest array.
    assert speedups[-1] > 1.0
