"""Ablation: point index ordering vs AU bank conflicts.

The paper observes that "an LSB-interleaving reduces bank conflicts".
LSB interleaving works because real datasets store points in scan
order, so spatial neighbors have nearby (hence bank-spread) indices.
This ablation quantifies that: the same cloud indexed in scan (Morton)
order vs a random permutation.
"""

import numpy as np
from conftest import print_table

from repro.data import morton_order
from repro.hw import AggregationUnit
from repro.neighbors import knn_brute_force, random_sampling


def _nit_for(points, n_out=512, k=32, seed=0):
    rng = np.random.default_rng(seed)
    centroids = random_sampling(points, n_out, rng=rng)
    idx, _ = knn_brute_force(points, points[centroids], k)
    return idx


def test_ablation_index_order(benchmark):
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1024, 3))
    surface = v / np.linalg.norm(v, axis=1, keepdims=True)
    # Drawn once: the row must not depend on how many rounds the
    # benchmark fixture decides to run.
    shuffled = surface[rng.permutation(len(surface))]

    def run():
        au = AggregationUnit()
        scan = surface[morton_order(surface)]
        return {
            "scan order": au.process(_nit_for(scan), 128, 1024),
            "random order": au.process(_nit_for(shuffled), 128, 1024),
        }

    data = benchmark(run)
    print_table(
        "Ablation: index ordering vs AU bank conflicts",
        ["Ordering", "Cycles", "Conflict rounds", "Slowdown vs ideal"],
        [
            (
                name,
                r.cycles,
                f"{r.conflict_fraction * 100:.0f}%",
                f"{r.slowdown_vs_ideal:.2f}x",
            )
            for name, r in data.items()
        ],
    )
    # Scan ordering must reduce conflicts and cycles — the property the
    # LSB-interleaved PFT banking relies on.
    assert data["scan order"].cycles < data["random order"].cycles
    assert data["scan order"].conflict_fraction < \
        data["random order"].conflict_fraction
