"""Ablation: approximate aggregation (the paper's §V-B future work).

    "An alternative way to resolve bank-conflict would be to simply
    ignore conflicted banks, essentially approximating the aggregation
    operation."

Sweeps the round budget of the bounded AU and reports the emergent
latency/drop/functional-error trade-off on a realistic index stream.
"""

import numpy as np
from conftest import print_table

from repro.hw import ApproximateAggregationUnit, dropped_neighbor_error, network_nits
from repro.networks import build_network

ROUND_BUDGETS = (1, 2, 3, None)


def test_ablation_approx_aggregation(benchmark):
    net = build_network("PointNet++ (c)")
    spec = net.encoder[0].spec
    nit = network_nits(net, "delayed")[spec.name]
    pft = np.random.default_rng(0).normal(size=(spec.n_in, spec.out_dim)) ** 2  # post-ReLU

    def run():
        out = {}
        for budget in ROUND_BUDGETS:
            au = ApproximateAggregationUnit(max_rounds=budget)
            r = au.process_approximate(nit, spec.out_dim, spec.n_in)
            err = dropped_neighbor_error(pft, nit, r.kept_mask)
            out[budget] = (r.speedup_vs_exact, r.dropped_fraction, err)
        return out

    data = benchmark(run)
    print_table(
        "Ablation: bounded-round (approximate) aggregation",
        ["Max rounds", "Speedup vs exact", "Dropped neighbors",
         "Reduction error"],
        [
            (
                "exact" if budget is None else budget,
                f"{data[budget][0]:.2f}x",
                f"{data[budget][1] * 100:.1f}%",
                f"{data[budget][2]:.4f}",
            )
            for budget in ROUND_BUDGETS
        ],
    )
    # The exact configuration drops nothing and costs the most cycles.
    assert data[None][1] == 0.0 and data[None][2] == 0.0
    # Tighter budgets: more speedup, more drops, more error - monotone.
    speedups = [data[b][0] for b in (1, 2, 3)]
    drops = [data[b][1] for b in (1, 2, 3)]
    errors = [data[b][2] for b in (1, 2, 3)]
    assert speedups[0] >= speedups[1] >= speedups[2] >= 1.0
    assert drops[0] >= drops[1] >= drops[2]
    assert errors[0] >= errors[1] >= errors[2]
    # A 2-round budget keeps the reduction error small — the regime
    # where the paper speculates accuracy could be retained.
    assert data[2][2] < 0.2
