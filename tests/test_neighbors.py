"""Unit tests for the neighbor search substrate."""

import numpy as np
import pytest

from repro.neighbors import (
    KDTree,
    ball_query,
    farthest_point_sampling,
    knn_brute_force,
    neighborhood_occupancy,
    pairwise_squared_distances,
    random_sampling,
)


def random_cloud(n=200, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestPairwiseDistances:
    def test_matches_naive(self):
        q, p = random_cloud(10, seed=1), random_cloud(20, seed=2)
        d = pairwise_squared_distances(q, p)
        naive = ((q[:, None, :] - p[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(d, naive, atol=1e-9)

    def test_nonnegative_despite_cancellation(self):
        p = np.full((5, 3), 1e6)
        d = pairwise_squared_distances(p, p)
        assert (d >= 0).all()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_squared_distances(np.zeros((2, 3)), np.zeros((2, 4)))


class TestBruteForceKNN:
    def test_self_is_nearest(self):
        pts = random_cloud(50)
        idx, dist = knn_brute_force(pts, pts, k=1)
        np.testing.assert_array_equal(idx[:, 0], np.arange(50))
        np.testing.assert_allclose(dist, 0.0, atol=1e-6)

    def test_sorted_by_distance(self):
        pts = random_cloud(100)
        _, dist = knn_brute_force(pts, pts[:10], k=8)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_matches_exhaustive(self):
        pts = random_cloud(40, seed=3)
        q = random_cloud(5, seed=4)
        idx, _ = knn_brute_force(pts, q, k=6)
        naive = np.argsort(((q[:, None] - pts[None]) ** 2).sum(-1), axis=1)[:, :6]
        for row in range(5):
            assert set(idx[row]) == set(naive[row])

    def test_k_equals_n(self):
        pts = random_cloud(7)
        idx, _ = knn_brute_force(pts, pts[:2], k=7)
        assert sorted(idx[0]) == list(range(7))

    def test_k_validation(self):
        pts = random_cloud(5)
        with pytest.raises(ValueError):
            knn_brute_force(pts, pts, k=6)
        with pytest.raises(ValueError):
            knn_brute_force(pts, pts, k=0)


def _oracle_clouds():
    """name -> (points, queries, k): the hostile shapes a brute-force
    search meets, each checked against the k-d tree."""
    rng = np.random.default_rng(41)
    base = rng.normal(size=(512, 3))
    line = rng.uniform(-2.0, 2.0, size=(128, 1)) * [1.0, -2.0, 0.5] \
        + [0.3, 0.1, -0.2]
    plane = rng.normal(size=(128, 2)) @ [[1.0, 0.0, 0.5], [0.0, 1.0, -1.0]]
    lattice = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    shifted = base + 1e3  # world-frame coordinates, as LiDAR sends them
    return {
        "scaled_x4": (base[:256] * 4, base[:32] * 4, 16),
        "collinear": (line, line[::8], 8),
        "coplanar": (plane, plane[::8], 12),
        "identical": (np.full((32, 3), 0.7), np.full((8, 3), 0.7), 8),
        "lattice_ties": (lattice, lattice[::7], 10),
        "k_equals_n": (base[:48], base[:8], 48),
        "far_query": (base[:64], np.array([[50.0, 50.0, 50.0]]), 3),
        "shifted_1e3": (shifted, shifted[:64], 16),
    }


ORACLE_CLOUDS = _oracle_clouds()
SEARCH_PATHS = {
    "float64": (np.float64, False),
    "float32": (np.float32, False),
    "float32_stack": (np.float32, True),
}


class TestBruteForceOracle:
    """Brute-force kNN against ``KDTree``, an independent search run in
    float64 on the coordinates as cast to the search dtype."""

    @pytest.mark.parametrize("path", SEARCH_PATHS)
    @pytest.mark.parametrize("name", ORACLE_CLOUDS)
    def test_neighbors_match_the_kdtree(self, name, path):
        points, queries, k = ORACLE_CLOUDS[name]
        dtype, stacked = SEARCH_PATHS[path]
        points, queries = points.astype(dtype), queries.astype(dtype)
        if stacked:
            # The cloud in the middle of a stack of unrelated clouds.
            rng = np.random.default_rng(7)
            others = rng.normal(size=(2, *points.shape)).astype(dtype)
            idx, dist = knn_brute_force(
                np.stack([others[0], points, others[1]]),
                np.stack([others[0, :len(queries)], queries,
                          others[1, :len(queries)]]),
                k, dtype=dtype)
            idx, dist = idx[1], dist[1]
        else:
            idx, dist = knn_brute_force(points, queries, k, dtype=dtype)
        p64, q64 = points.astype(np.float64), queries.astype(np.float64)
        tree = KDTree(p64)
        # The search may round a squared distance by a few ulps of the
        # squared extent of the cloud about its own centre, never of
        # its distance from the origin.
        centre = (p64.min(axis=0) + p64.max(axis=0)) / 2
        extent = np.abs(np.concatenate([p64, q64]) - centre).max()
        tol = 16 * np.finfo(dtype).eps * max(extent, 1.0) ** 2
        n = len(p64)
        for row, q in enumerate(q64):
            t_idx, t_dist = tree.query(q, min(k + 1, n))
            exact = ((p64[idx[row]] - q) ** 2).sum(axis=1)
            assert len(set(idx[row])) == k
            assert (np.diff(dist[row]) >= 0).all()
            np.testing.assert_allclose(dist[row].astype(np.float64) ** 2,
                                       exact, rtol=0, atol=tol)
            np.testing.assert_allclose(np.sort(exact), t_dist[:k] ** 2,
                                       rtol=0, atol=tol)
            # Where the k-th and (k+1)-th neighbours are told apart by
            # more than rounding, the neighbour set itself is fixed.
            if k == n or t_dist[k] ** 2 - t_dist[k - 1] ** 2 > 2 * tol:
                assert set(idx[row]) == set(t_idx[:k]), row


class TestKDTree:
    def test_agrees_with_brute_force(self):
        pts = random_cloud(300, seed=5)
        tree = KDTree(pts)
        q = random_cloud(20, seed=6)
        tree_i, tree_d = tree.query_batch(q, k=5)
        bf_i, bf_d = knn_brute_force(pts, q, k=5)
        np.testing.assert_allclose(tree_d, bf_d, atol=1e-9)
        # Indices can differ under distance ties; distances must match.

    def test_single_query(self):
        pts = random_cloud(64, seed=7)
        tree = KDTree(pts)
        idx, dist = tree.query(pts[10], k=1)
        assert idx[0] == 10
        assert dist[0] == pytest.approx(0.0, abs=1e-12)

    def test_radius_query_matches_naive(self):
        pts = random_cloud(200, seed=8)
        tree = KDTree(pts)
        q = pts[0]
        r = 1.0
        hits = tree.query_radius(q, r)
        naive = np.nonzero(np.sqrt(((pts - q) ** 2).sum(1)) <= r)[0]
        np.testing.assert_array_equal(hits, naive)

    def test_radius_zero_returns_self(self):
        pts = random_cloud(30, seed=9)
        hits = KDTree(pts).query_radius(pts[3], 0.0)
        assert 3 in hits

    def test_depth_logarithmic(self):
        pts = random_cloud(1024, seed=10)
        tree = KDTree(pts, leaf_size=8)
        assert tree.depth() <= 12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((0, 3)))

    def test_k_too_large(self):
        tree = KDTree(random_cloud(5))
        with pytest.raises(ValueError):
            tree.query(np.zeros(3), k=6)

    def test_duplicate_points(self):
        pts = np.zeros((20, 3))
        tree = KDTree(pts)
        idx, dist = tree.query(np.zeros(3), k=5)
        assert len(idx) == 5
        np.testing.assert_allclose(dist, 0.0)


class TestBallQuery:
    def test_within_radius(self):
        pts = random_cloud(100, seed=11)
        idx, counts = ball_query(pts, pts[:5], radius=0.8, max_samples=16)
        for row in range(5):
            genuine = idx[row][: counts[row]]
            d = np.sqrt(((pts[genuine] - pts[row]) ** 2).sum(1))
            assert (d <= 0.8 + 1e-9).all()

    def test_padding_repeats_first(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0]])
        idx, counts = ball_query(pts, pts[:1], radius=0.5, max_samples=4)
        assert counts[0] == 2
        assert idx[0, 2] == idx[0, 0]
        assert idx[0, 3] == idx[0, 0]

    def test_empty_ball_falls_back_to_nearest(self):
        pts = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        q = np.array([[5.1, 0, 0]])
        idx, counts = ball_query(pts, q, radius=0.1, max_samples=2)
        assert counts[0] == 1
        assert idx[0, 0] == 1  # the nearer of the two

    def test_validation(self):
        pts = random_cloud(10)
        with pytest.raises(ValueError):
            ball_query(pts, pts, radius=-1.0, max_samples=4)
        with pytest.raises(ValueError):
            ball_query(pts, pts, radius=1.0, max_samples=0)


class TestSampling:
    def test_fps_spreads_points(self):
        # FPS on a line picks the two extremes first.
        pts = np.linspace(0, 1, 101)[:, None] * np.array([1.0, 0, 0])
        idx = farthest_point_sampling(pts, 3, start=0)
        assert idx[0] == 0
        assert idx[1] == 100
        assert idx[2] == 50

    def test_fps_unique(self):
        pts = random_cloud(64, seed=12)
        idx = farthest_point_sampling(pts, 32)
        assert len(set(idx.tolist())) == 32

    def test_fps_min_distance_beats_random(self):
        pts = random_cloud(256, seed=13)
        fps = farthest_point_sampling(pts, 32)
        rnd = random_sampling(pts, 32, rng=np.random.default_rng(0))

        def min_pair(sel):
            sub = pts[sel]
            d = ((sub[:, None] - sub[None]) ** 2).sum(-1)
            np.fill_diagonal(d, np.inf)
            return d.min()

        assert min_pair(fps) > min_pair(rnd)

    def test_random_sampling_no_replacement(self):
        pts = random_cloud(50)
        idx = random_sampling(pts, 50)
        assert sorted(idx.tolist()) == list(range(50))

    def test_validation(self):
        pts = random_cloud(10)
        for fn in (farthest_point_sampling, random_sampling):
            with pytest.raises(ValueError):
                fn(pts, 0)
            with pytest.raises(ValueError):
                fn(pts, 11)


class TestOccupancyStats:
    def test_counts(self):
        nit = np.array([[0, 1], [0, 2], [0, 1]])
        counts = neighborhood_occupancy(nit, 4)
        np.testing.assert_array_equal(counts, [3, 2, 1, 0])

    def test_occupancy_sums_to_centroids_times_k(self):
        pts = random_cloud(128, seed=14)
        idx, _ = knn_brute_force(pts, pts[:64], k=16)
        counts = neighborhood_occupancy(idx, 128)
        assert counts.sum() == 64 * 16

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            neighborhood_occupancy(np.array([[5]]), 3)
