"""Tests for the batched inference engine and batched neighbor search."""

import numpy as np
import pytest

from repro.engine import (
    BatchRunner,
    NeighborIndexCache,
    ParallelRunner,
    content_digest,
    kdtree_nit_task,
    run_benchmarks,
)
from repro.neighbors import (
    SUBSTRATES,
    active_search_options,
    ball_query,
    knn_brute_force,
    neighbor_search,
    pairwise_squared_distances,
    raw_knn,
    search_context,
)
from repro.networks import build_network


def random_clouds(batch=4, n=120, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, n, d))


class TestBatchedBrute:
    def test_batched_matches_loop_bit_exactly(self):
        clouds = random_clouds(5, 150, seed=1)
        queries = clouds[:, :40]
        batch_i, batch_d = knn_brute_force(clouds, queries, 9)
        assert batch_i.shape == (5, 40, 9)
        for b in range(5):
            one_i, one_d = knn_brute_force(clouds[b], queries[b], 9)
            np.testing.assert_array_equal(batch_i[b], one_i)
            np.testing.assert_array_equal(batch_d[b], one_d)

    def test_batched_matches_loop_bit_exactly_float32(self):
        clouds = random_clouds(3, 100, seed=2).astype(np.float32)
        batch_i, batch_d = knn_brute_force(clouds, clouds, 5, dtype=np.float32)
        for b in range(3):
            one_i, one_d = knn_brute_force(clouds[b], clouds[b], 5,
                                           dtype=np.float32)
            np.testing.assert_array_equal(batch_i[b], one_i)
            np.testing.assert_array_equal(batch_d[b], one_d)

    def test_float32_indices_match_float64(self):
        clouds = random_clouds(2, 200, seed=3)
        i32, d32 = knn_brute_force(clouds, clouds[:, :50], 8, dtype=np.float32)
        i64, d64 = knn_brute_force(clouds, clouds[:, :50], 8)
        np.testing.assert_array_equal(i32, i64)
        # Compare squared distances: sqrt amplifies float32 cancellation
        # noise on (near-)zero self-distances beyond any fixed atol.
        np.testing.assert_allclose(d32.astype(np.float64) ** 2, d64 ** 2,
                                   atol=1e-4)
        assert d32.dtype == np.float32 and d64.dtype == np.float64

    def test_block_size_does_not_change_results(self):
        cloud = random_clouds(1, 200, seed=4)[0]
        i_small, d_small = knn_brute_force(cloud, cloud, 7, block=17)
        i_big, d_big = knn_brute_force(cloud, cloud, 7, block=4096)
        np.testing.assert_array_equal(i_small, i_big)
        np.testing.assert_array_equal(d_small, d_big)

    def test_batch_mismatch_rejected(self):
        clouds = random_clouds(3, 50, seed=5)
        with pytest.raises(ValueError):
            knn_brute_force(clouds, clouds[:2, :10], 4)
        with pytest.raises(ValueError):
            knn_brute_force(clouds, clouds[0, :10], 4)

    def test_pairwise_dtype_skips_copy(self):
        cloud = random_clouds(1, 60, seed=6)[0].astype(np.float32)
        d32 = pairwise_squared_distances(cloud, cloud, dtype=np.float32)
        assert d32.dtype == np.float32
        # Default stays float64 for backward compatibility.
        assert pairwise_squared_distances(cloud, cloud).dtype == np.float64
        naive = ((cloud[:, None, :] - cloud[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(d32, naive, atol=1e-4)

    def test_pairwise_batched_matches_loop(self):
        clouds = random_clouds(3, 40, seed=7)
        batched = pairwise_squared_distances(clouds[:, :10], clouds)
        for b in range(3):
            np.testing.assert_array_equal(
                batched[b], pairwise_squared_distances(clouds[b, :10], clouds[b])
            )


class TestBatchedBall:
    def test_batched_matches_loop_bit_exactly(self):
        clouds = random_clouds(4, 130, seed=8)
        queries = clouds[:, :50]
        batch_i, batch_c = ball_query(clouds, queries, 0.7, 10)
        assert batch_i.shape == (4, 50, 10)
        for b in range(4):
            one_i, one_c = ball_query(clouds[b], queries[b], 0.7, 10)
            np.testing.assert_array_equal(batch_i[b], one_i)
            np.testing.assert_array_equal(batch_c[b], one_c)

    def test_matches_reference_row_loop(self):
        # The vectorized kernel must reproduce the historical per-row
        # loop exactly: first hits in index order, first-hit padding,
        # nearest-point fallback.
        cloud = random_clouds(1, 90, seed=9)[0]
        queries = np.vstack([cloud[:20], np.full((1, 3), 50.0)])  # one empty ball
        d = pairwise_squared_distances(queries, cloud)
        idx, counts = ball_query(cloud, queries, 0.8, 6)
        for row in range(len(queries)):
            hits = np.nonzero(d[row] <= 0.64)[0]
            if len(hits) == 0:
                hits = np.array([int(np.argmin(d[row]))])
            kept = hits[:6]
            assert counts[row] == len(kept)
            np.testing.assert_array_equal(idx[row, : len(kept)], kept)
            assert (idx[row, len(kept):] == kept[0]).all()


class TestSubstrateAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_substrates_return_same_neighbor_sets(self, seed):
        # Property: on random clouds, every substrate returns the same
        # neighbor distances (identical sets up to distance ties).
        cloud = random_clouds(1, 180, seed=10 + seed)[0]
        queries = cloud[::7]
        reference = None
        for substrate in SUBSTRATES:
            idx, dist = raw_knn(cloud, queries, 6, substrate=substrate)
            assert idx.shape == (len(queries), 6)
            if reference is None:
                reference = dist
            else:
                np.testing.assert_allclose(dist, reference, atol=1e-6)

    def test_substrates_agree_batched(self):
        clouds = random_clouds(3, 100, seed=20)
        queries = clouds[:, :25]
        reference = None
        for substrate in SUBSTRATES:
            idx, dist = raw_knn(clouds, queries, 5, substrate=substrate)
            assert idx.shape == (3, 25, 5)
            if reference is None:
                reference = dist
            else:
                np.testing.assert_allclose(dist, reference, atol=1e-6)

    def test_every_substrate_rejects_bad_k(self):
        # scipy's cKDTree would otherwise pad k > N with out-of-bounds
        # indices; the dispatch layer must enforce the brute contract.
        cloud = random_clouds(1, 6, seed=22)[0]
        for substrate in SUBSTRATES:
            with pytest.raises(ValueError):
                raw_knn(cloud, cloud, 9, substrate=substrate)
            with pytest.raises(ValueError):
                raw_knn(cloud, cloud, 0, substrate=substrate)

    def test_search_context_scopes_options(self):
        assert active_search_options()["substrate"] == "brute"
        with search_context(substrate="kdtree"):
            assert active_search_options()["substrate"] == "kdtree"
            with search_context(substrate="grid"):
                assert active_search_options()["substrate"] == "grid"
            assert active_search_options()["substrate"] == "kdtree"
        assert active_search_options()["substrate"] == "brute"
        with pytest.raises(ValueError):
            with search_context(substrate="octree"):
                pass

    def test_neighbor_search_honours_context(self):
        cloud = random_clouds(1, 80, seed=21)[0]
        brute_i, _ = neighbor_search(cloud, cloud[:10], 4)
        with search_context(substrate="kdtree"):
            tree_i, tree_d = neighbor_search(cloud, cloud[:10], 4)
        ref_d = raw_knn(cloud, cloud[:10], 4, substrate="brute")[1]
        np.testing.assert_allclose(tree_d, ref_d, atol=1e-6)
        assert brute_i.shape == tree_i.shape


class TestBatchedNeighborIndexTable:
    def test_round_trip_through_per_cloud_tables(self):
        from repro.core import BatchedNeighborIndexTable

        clouds = random_clouds(3, 50, seed=25)
        idx, _ = knn_brute_force(clouds, clouds[:, :8], 4)
        batched = BatchedNeighborIndexTable(idx, np.arange(8))
        assert (batched.batch_size, batched.n_centroids, batched.k) == (3, 8, 4)
        rebuilt = BatchedNeighborIndexTable.from_tables(batched.tables())
        np.testing.assert_array_equal(rebuilt.indices, batched.indices)
        assert batched.cloud(1).size_bytes() * 3 == batched.size_bytes()

    def test_validation(self):
        from repro.core import BatchedNeighborIndexTable

        with pytest.raises(ValueError):
            BatchedNeighborIndexTable(np.zeros((4, 3)), np.arange(4))
        with pytest.raises(ValueError):
            BatchedNeighborIndexTable(np.zeros((2, 4, 3)), np.arange(5))
        with pytest.raises(ValueError):
            BatchedNeighborIndexTable.from_tables([])


class TestNeighborIndexCache:
    def test_hit_returns_same_result(self):
        cache = NeighborIndexCache(maxsize=8)
        cloud = random_clouds(1, 70, seed=30)[0]
        i1, d1 = cache.knn(cloud, cloud[:12], 5)
        i2, d2 = cache.knn(cloud, cloud[:12], 5)
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(d1, d2)

    def test_distinct_parameters_miss(self):
        cache = NeighborIndexCache(maxsize=8)
        cloud = random_clouds(1, 70, seed=31)[0]
        cache.knn(cloud, cloud[:12], 5)
        cache.knn(cloud, cloud[:12], 6)  # different k
        cache.knn(cloud, cloud[:12], 5, substrate="kdtree")
        cache.ball(cloud, cloud[:12], 0.5, 5)
        assert cache.misses == 4 and cache.hits == 0

    def test_lru_eviction(self):
        cache = NeighborIndexCache(maxsize=2)
        clouds = random_clouds(3, 40, seed=32)
        for b in range(3):
            cache.knn(clouds[b], clouds[b][:5], 3)
        assert len(cache) == 2 and cache.evictions == 1
        cache.knn(clouds[0], clouds[0][:5], 3)  # evicted -> recomputed
        assert cache.misses == 4

    def test_batched_lookup_fills_only_misses(self):
        cache = NeighborIndexCache(maxsize=16)
        clouds = random_clouds(4, 60, seed=33)
        queries = clouds[:, :10]
        cache.knn(clouds[1], queries[1], 4)
        cache.knn(clouds[3], queries[3], 4)
        batch_i, batch_d = cache.knn(clouds, queries, 4)
        assert cache.hits == 2 and cache.misses == 4  # 2 singles + 2 batch misses
        ref_i, ref_d = knn_brute_force(clouds, queries, 4)
        np.testing.assert_array_equal(batch_i, ref_i)
        np.testing.assert_array_equal(batch_d, ref_d)

    def test_stack_resolves_each_distinct_cloud_once(self, monkeypatch):
        from repro.engine import cache as cache_module

        computed = []
        real = cache_module.raw_knn

        def recording_knn(points, *args, **kwargs):
            computed.append(np.asarray(points).shape)
            return real(points, *args, **kwargs)

        monkeypatch.setattr(cache_module, "raw_knn", recording_knn)
        cache = NeighborIndexCache(maxsize=16)
        a, b = random_clouds(2, 64, seed=36)
        stack = np.stack([a] * 4)
        indices, distances = cache.knn(stack, stack[:, :10], 4)
        # Four copies of one cloud: one search over one cloud, one miss,
        # and a hit per repeat — not four misses and a (4, 64, 3) search.
        assert computed == [(1, 64, 3)]
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 3
        assert len(cache) == 1
        ref_i, ref_d = knn_brute_force(stack, stack[:, :10], 4)
        np.testing.assert_array_equal(indices, ref_i)
        np.testing.assert_array_equal(distances, ref_d)
        # Mixed stack: the cached cloud hits (twice), the new one
        # computes once, in stack order.
        mixed = np.stack([a, b, a, b])
        indices, _ = cache.knn(mixed, mixed[:, :10], 4)
        assert computed == [(1, 64, 3), (1, 64, 3)]
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 6
        np.testing.assert_array_equal(
            indices, knn_brute_force(mixed, mixed[:, :10], 4)[0])

    def test_content_digest_distinguishes(self):
        a = random_clouds(1, 10, seed=34)[0]
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a.astype(np.float32))
        assert content_digest(a) != content_digest(a[:5])

    def test_cache_inside_search_context(self):
        cache = NeighborIndexCache(maxsize=32)
        cloud = random_clouds(1, 60, seed=35)[0]
        with search_context(cache=cache):
            i1, _ = neighbor_search(cloud, cloud[:8], 3)
            i2, _ = neighbor_search(cloud, cloud[:8], 3)
        assert cache.hits == 1
        np.testing.assert_array_equal(i1, i2)


class TestBatchRunner:
    @pytest.mark.parametrize("name", ["PointNet++ (c)", "DGCNN (c)"])
    @pytest.mark.parametrize("strategy", ["delayed", "original"])
    def test_batched_forward_matches_single(self, name, strategy):
        net = build_network(name, num_classes=6, scale=0.0625)
        clouds = random_clouds(3, net.n_points, seed=40)
        runner = BatchRunner(net, strategy=strategy)
        batched = runner.run(clouds)
        assert batched.outputs.shape == (3, 6)
        for b in range(3):
            single = net.forward(clouds[b], strategy=strategy)
            np.testing.assert_allclose(
                batched.outputs[b], single.data[0], atol=1e-6
            )

    @pytest.mark.parametrize("name", ["PointNet++ (s)", "DGCNN (s)"])
    def test_batched_segmentation_matches_single(self, name):
        net = build_network(name, num_classes=5, scale=0.03125)
        clouds = random_clouds(2, net.n_points, seed=41)
        runner = BatchRunner(net)
        batched = runner.run(clouds)
        assert batched.outputs.shape == (2, net.n_points, 5)
        for b in range(2):
            single = net.forward(clouds[b])
            np.testing.assert_allclose(batched.outputs[b], single.data, atol=1e-6)

    def test_graph_executor_networks(self):
        # Networks without a hand-written batched body (pre-IR these
        # fell back to a per-cloud loop) batch through the generic
        # graph executor behind the same API.
        net = build_network("LDGCNN", num_classes=4, scale=0.0625)
        clouds = random_clouds(2, net.n_points, seed=42)
        batched = BatchRunner(net).run(clouds)
        assert batched.outputs.shape[0] == 2
        single = net.forward(clouds[0])
        np.testing.assert_allclose(batched.outputs[0], single.data[0], atol=1e-6)

    def test_runner_with_cache_and_substrate(self):
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        clouds = random_clouds(2, net.n_points, seed=43)
        cache = NeighborIndexCache(maxsize=64)
        runner = BatchRunner(net, cache=cache)
        first = runner.run(clouds)
        assert cache.misses > 0
        misses_after_first = cache.misses
        second = runner.run(clouds)
        assert cache.misses == misses_after_first  # warm: all searches hit
        assert cache.hits > 0
        np.testing.assert_allclose(first.outputs, second.outputs, atol=0)
        assert second.cache_stats["hits"] == cache.hits

    def test_sequential_matches_batched(self):
        net = build_network("DGCNN (c)", num_classes=4, scale=0.0625)
        clouds = random_clouds(2, net.n_points, seed=44)
        runner = BatchRunner(net)
        np.testing.assert_allclose(
            runner.run(clouds).outputs,
            runner.run_sequential(clouds).outputs,
            atol=1e-6,
        )

    def test_shape_validation(self):
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        with pytest.raises(ValueError):
            BatchRunner(net).run(np.zeros((2, net.n_points + 1, 3)))
        with pytest.raises(ValueError):
            BatchRunner(net, strategy="bogus")


class TestParallelRunner:
    def test_backends_agree(self):
        clouds = random_clouds(3, 64, seed=50)
        tasks = [(clouds[b], clouds[b][:16], 4) for b in range(3)]
        serial = ParallelRunner(backend="serial").map(kdtree_nit_task, tasks)
        threaded = ParallelRunner(max_workers=2, backend="thread").map(
            kdtree_nit_task, tasks
        )
        procs = ParallelRunner(max_workers=2, backend="process").map(
            kdtree_nit_task, tasks
        )
        for ser, thr, pro in zip(serial, threaded, procs):
            np.testing.assert_array_equal(ser[0], thr[0])
            np.testing.assert_array_equal(ser[0], pro[0])

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(backend="gpu")


class TestBenchSmoke:
    def test_quick_benchmarks_have_all_rows(self):
        results = run_benchmarks(quick=True)
        for key in ("meta", "knn", "ball", "forward", "parallel", "substrates"):
            assert key in results
        assert results["knn"]["speedup_batched"] > 0
        assert results["knn"]["speedup_cached"] > 1
        assert results["ball"]["speedup_batched"] > 0
        assert results["forward"]["speedup_batched"] > 0
        assert results["parallel"]["speedup_parallel"] > 0
