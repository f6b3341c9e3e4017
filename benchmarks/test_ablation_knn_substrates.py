"""Ablation: neighbor-search substrates (brute force / k-d tree).

The library ships two N implementations; this benchmark verifies they
agree and measures the tree's actual Python runtime on a PointNet++-
module-sized workload, illustrating why tree structures matter as the
point count grows (the motivation for neighbor search engines, §VII-E).
"""

import numpy as np
from conftest import print_table

from repro.neighbors import KDTree, knn_brute_force

N_POINTS = 1024
N_QUERIES = 64
K = 8


def _cloud():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(N_POINTS, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_knn_substrates_agree_and_benchmark(benchmark):
    pts = _cloud()
    queries = pts[:N_QUERIES]
    tree = KDTree(pts)

    bf_idx, bf_dist = knn_brute_force(pts, queries, K)

    def run_all():
        return np.stack([tree.query(q, K)[1] for q in queries])

    tree_dist = benchmark(run_all)
    print_table(
        "Neighbor search substrates (1024 points, 64 queries, K=8)",
        ["Substrate", "Max |d - brute| "],
        [
            ("KDTree", f"{np.abs(tree_dist - bf_dist).max():.2e}"),
        ],
    )
    np.testing.assert_allclose(tree_dist, bf_dist, atol=1e-6)
    # Structural sanity: the tree is balanced.
    assert tree.depth() <= 12
