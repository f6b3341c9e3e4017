"""Property-based tests (hypothesis) for the core data structures and
the mathematical identities delayed-aggregation rests on."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import one_module_net, run_module
from repro.core import ModuleSpec, max_subtract_gap
from repro.hw import AggregationUnit
from repro.neighbors import KDTree, knn_brute_force, neighborhood_occupancy
from repro.neural import Tensor, no_grad

finite = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False, width=64)


def cloud_strategy(min_n=4, max_n=48, dim=3):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=finite)
    )


class TestNeighborSearchProperties:
    @settings(max_examples=30, deadline=None)
    @given(cloud_strategy(), st.integers(min_value=1, max_value=4),
           st.randoms())
    def test_knn_distances_sorted_and_minimal(self, pts, k, rnd):
        if len(np.unique(pts, axis=0)) < len(pts):
            pts = pts + np.arange(len(pts))[:, None] * 1e-3  # break ties
        idx, dist = knn_brute_force(pts, pts[:2], k)
        # Sorted by distance.
        assert (np.diff(dist, axis=1) >= -1e-9).all()
        # The k-th distance is a lower bound on all excluded points.
        # Tolerance matches the brute-force kernel's cancellation error
        # (the expanded |q|^2+|p|^2-2qp formula loses ~1e-6 absolute at
        # coordinate magnitude 100 — see the kd-tree comparison below).
        for row in range(2):
            others = np.setdiff1d(np.arange(len(pts)), idx[row])
            if len(others):
                d_others = np.sqrt(((pts[others] - pts[row]) ** 2).sum(1))
                assert d_others.min() >= dist[row, -1] - 2e-5

    @settings(max_examples=20, deadline=None)
    @given(cloud_strategy(min_n=8, max_n=64))
    def test_kdtree_matches_brute_force(self, pts):
        k = min(4, len(pts))
        tree = KDTree(pts, leaf_size=4)
        t_idx, t_dist = tree.query(pts[0], k)
        _, b_dist = knn_brute_force(pts, pts[:1], k)
        # The brute-force path uses the expanded |q|^2+|p|^2-2qp formula,
        # whose cancellation error is ~1e-6 at coordinate magnitude 100;
        # the KD-tree computes differences directly and is exact.
        np.testing.assert_allclose(t_dist, b_dist[0], atol=2e-5)

    @settings(max_examples=20, deadline=None)
    @given(cloud_strategy(min_n=6, max_n=40),
           st.integers(min_value=1, max_value=5))
    def test_occupancy_conservation(self, pts, k):
        k = min(k, len(pts))
        idx, _ = knn_brute_force(pts, pts, k)
        counts = neighborhood_occupancy(idx, len(pts))
        # Total occupancy equals centroids * K, always.
        assert counts.sum() == len(pts) * k


class TestDistributivityProperties:
    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (6, 4), elements=finite),
           arrays(np.float64, (4,), elements=finite))
    def test_max_distributes_over_subtraction(self, neighbors, centroid):
        # The identity that lets the AU subtract after reduction.
        assert max_subtract_gap(neighbors, centroid) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (5, 3), elements=finite),
           arrays(np.float64, (3, 7), elements=finite),
           arrays(np.float64, (3,), elements=finite))
    def test_linear_map_distributes(self, neighbors, weight, centroid):
        lhs = (neighbors - centroid) @ weight
        rhs = neighbors @ weight - centroid @ weight
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestTensorProperties:
    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (4, 5), elements=finite),
           arrays(np.float64, (4, 5), elements=finite))
    def test_addition_commutes(self, a, b):
        np.testing.assert_allclose(
            (Tensor(a) + Tensor(b)).data, (Tensor(b) + Tensor(a)).data
        )

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (3, 4), elements=finite))
    def test_relu_idempotent(self, a):
        once = Tensor(a).relu()
        twice = once.relu()
        np.testing.assert_allclose(once.data, twice.data)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (6, 2), elements=finite),
           st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=8))
    def test_gather_grad_counts_uses(self, a, indices):
        # The gradient of sum(gather(x)) w.r.t. x counts each row's uses.
        t = Tensor(a, requires_grad=True)
        idx = np.array(indices)
        t.gather(idx).sum().backward()
        expected = np.bincount(idx, minlength=6).astype(float)[:, None]
        np.testing.assert_allclose(t.grad, np.broadcast_to(expected, (6, 2)))

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (5, 4), elements=finite))
    def test_max_reduction_bounds(self, a):
        out = Tensor(a).max(axis=0)
        assert (out.data >= a).sum() >= a.shape[1]  # max dominates columns
        np.testing.assert_allclose(out.data, a.max(axis=0))


class TestTraceProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=8, max_value=256),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([(3, 16), (3, 8, 16), (4, 32, 32)]),
    )
    def test_delayed_never_more_mlp_macs(self, n_in, out_div, k_cap, dims):
        n_out = max(1, n_in // out_div)
        k = min(n_in, k_cap)
        net = one_module_net(ModuleSpec("m", n_in, n_out, k, dims))

        def mlp_macs(strategy):
            return sum(op.macs for op in net.trace(strategy)
                       if op.module == "m" and op.phase == "F")

        # Delayed MACs < original exactly when n_in < n_out * k; our
        # networks always satisfy n_in <= n_out * k.
        if n_in <= n_out * k:
            assert mlp_macs("delayed") <= mlp_macs("original")

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=8, max_value=128),
        st.integers(min_value=2, max_value=6),
        st.sampled_from(["original", "delayed", "limited"]),
    )
    def test_trace_phases_complete(self, n_in, k, strategy):
        spec = ModuleSpec("m", n_in, max(1, n_in // 2), min(k, n_in),
                          (3, 8, 16))
        t = one_module_net(spec).trace(strategy)
        phases = {op.phase for op in t if op.module == "m"}
        assert {"N", "A", "F"} <= phases


class TestAUProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        arrays(np.int64, (8, 6),
               elements=st.integers(min_value=0, max_value=511)),
    )
    def test_rounds_bounded(self, nit):
        au = AggregationUnit()
        for row in nit:
            rounds = au.entry_rounds(row)
            # Bounded below by the ideal and above by K.
            assert int(np.ceil(len(row) / au.banks)) <= rounds <= len(row)

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(np.int64, (4, 8),
               elements=st.integers(min_value=0, max_value=255)),
        st.integers(min_value=4, max_value=64),
    )
    def test_process_invariants(self, nit, feature_dim):
        au = AggregationUnit()
        r = au.process(nit, feature_dim, 256)
        assert r.cycles > 0
        assert r.total_rounds >= r.ideal_rounds
        assert 0 <= r.conflict_fraction < 1
        assert r.pft_word_reads == 4 * 9 * feature_dim
        assert r.energy > 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=16, max_value=4096),
           st.integers(min_value=4, max_value=512))
    def test_partition_covers_features(self, n_points, feature_dim):
        au = AggregationUnit()
        parts = au.n_partitions(n_points, feature_dim)
        cols = -(-feature_dim // parts)  # ceil division
        assert cols * parts >= feature_dim
        # Each partition must fit in the buffer (unless a single row
        # of one column already exceeds it).
        if n_points <= au.pft_buffer.words:
            assert cols * n_points <= au.pft_buffer.words


module_sizes = st.tuples(
    st.integers(min_value=2, max_value=40),   # n_in
    st.integers(min_value=1, max_value=4),    # n_in // n_out
    st.integers(min_value=1, max_value=8),    # k cap
    st.integers(min_value=0, max_value=2 ** 16),  # cloud seed
)


def run_sized(sizes, strategy, dims=(3, 6, 5)):
    """A sized module's region run, in a one-module network."""
    n_in, out_div, k_cap, seed = sizes
    spec = ModuleSpec("m", n_in, max(1, n_in // out_div), min(n_in, k_cap),
                      dims)
    cloud = np.random.default_rng(seed).normal(size=(n_in, 3))
    net = one_module_net(spec, rng=np.random.default_rng(seed + 1))
    with no_grad():
        return spec, run_module(net, cloud, strategy)[2]


class TestModuleRunProperties:
    @settings(max_examples=30, deadline=None)
    @given(module_sizes, st.sampled_from(["original", "delayed", "limited"]))
    def test_neighbor_table_indexes_the_cloud(self, sizes, strategy):
        spec, out = run_sized(sizes, strategy)
        assert out.indices.shape == (spec.n_out, spec.k)
        assert out.indices.min() >= 0 and out.indices.max() < spec.n_in
        assert np.all(np.diff(out.centroids) > 0)
        for row, centroid in zip(out.indices, out.centroids):
            assert len(set(row.tolist())) == spec.k
            assert centroid in row

    @settings(max_examples=30, deadline=None)
    @given(module_sizes)
    def test_delayed_is_the_gathered_max_minus_the_centroid_row(self, sizes):
        _spec, out = run_sized(sizes, "delayed")
        expected = out.pft[out.indices].max(axis=1) - out.pft[out.centroids]
        np.testing.assert_array_equal(out.features.data, expected)

    @settings(max_examples=30, deadline=None)
    @given(module_sizes)
    def test_limited_matches_original(self, sizes):
        # Hoisting only the linear product is exact (§VII-C).
        _spec, orig = run_sized(sizes, "original")
        _spec, ltd = run_sized(sizes, "limited")
        np.testing.assert_array_equal(ltd.indices, orig.indices)
        np.testing.assert_allclose(ltd.features.data, orig.features.data,
                                   rtol=1e-9, atol=1e-9)
