"""Tests for the batched inference engine and batched neighbor search."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import assert_bit_exact, clouds_for, interpret, toy
from repro.backend import compile_kernel_program
from repro.engine import (
    BatchRunner,
    NeighborIndexCache,
    ParallelRunner,
    cache as cache_module,
    content_digest,
)
from repro.neighbors import (
    ball_query,
    knn_brute_force,
    pairwise_squared_distances,
)
from repro.networks import ALL_NETWORKS, build_network


def random_clouds(batch=4, n=120, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, n, d))


def cloud_leaves(result):
    """Each cloud's output leaves, flattened, in key order."""
    return [
        [np.ravel(item[key]) for key in sorted(item)]
        if isinstance(item, dict) else [np.ravel(item)]
        for item in result.per_cloud()
    ]


def alone(runner, clouds):
    """Each cloud's output leaves, served through ``runner`` alone."""
    return [cloud_leaves(runner.run(cloud[None]))[0] for cloud in clouds]


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    def test_batched_matches_full_matrix_reference(self, dtype):
        # The batched kernel against the pre-engine per-cloud search: a
        # full distance matrix, argpartition, then a stable sort of the
        # K survivors.  Same neighbors, in the same order, per cloud.
        clouds = random_clouds(4, 160, seed=10).astype(dtype)
        batch_i, batch_d = knn_brute_force(clouds, clouds, 12, dtype=dtype,
                                           block=37)
        for b in range(4):
            d = pairwise_squared_distances(clouds[b], clouds[b], dtype=dtype)
            part = np.argpartition(d, 11, axis=1)[:, :12]
            part_d = np.take_along_axis(d, part, axis=1)
            order = np.argsort(part_d, axis=1, kind="stable")
            np.testing.assert_array_equal(
                batch_i[b], np.take_along_axis(part, order, axis=1))
            np.testing.assert_allclose(
                batch_d[b] ** 2, np.take_along_axis(part_d, order, axis=1),
                atol=1e-4 if dtype == np.float32 else 1e-12)

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    def test_batched_matches_reference_row_loop(self, dtype):
        # The same per-row loop over a stack of clouds, at the distance
        # precision the stack is searched in.
        clouds = random_clouds(3, 110, seed=11).astype(dtype)
        queries = np.concatenate(
            [clouds[:, :30], np.full((3, 1, 3), 50.0, dtype=dtype)], axis=1)
        idx, counts = ball_query(clouds, queries, 0.6, 8, dtype=dtype)
        assert idx.shape == (3, 31, 8)
        for b in range(3):
            d = pairwise_squared_distances(queries[b], clouds[b], dtype=dtype)
            for row in range(31):
                hits = np.nonzero(d[row] <= dtype(0.6) * dtype(0.6))[0]
                if len(hits) == 0:
                    hits = np.array([int(np.argmin(d[row]))])
                kept = hits[:8]
                assert counts[b, row] == len(kept)
                np.testing.assert_array_equal(idx[b, row, : len(kept)], kept)
                assert (idx[b, row, len(kept):] == kept[0]).all()


class TestCacheArgument:
    @pytest.mark.parametrize("cached", [False, True])
    def test_a_bad_k_raises_through_both_searches(self, cached):
        # The cache computes through knn_brute_force, whose validation
        # is the only one: a bad k raises on both paths and leaves no
        # claim behind.
        cloud = random_clouds(1, 6, seed=22)[0]
        cache = NeighborIndexCache(maxsize=8)
        search = cache.knn if cached else knn_brute_force
        for k in (9, 0):
            with pytest.raises(ValueError):
                search(cloud, cloud, k)
            with pytest.raises(ValueError):
                search(cloud[None], cloud[None], k)
        assert not cache._pending and len(cache) == 0

    def test_runners_fill_only_their_own_cache(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=21)
        a, b = NeighborIndexCache(maxsize=16), NeighborIndexCache(maxsize=16)
        BatchRunner(net, cache=a).run(clouds[0:1])
        runner_b = BatchRunner(net, cache=b)
        runner_b.run(clouds[1:2])
        runner_b.run(clouds[1:2])
        BatchRunner(net, cache=a).run(clouds[2:3])
        BatchRunner(net).run(clouds[0:1])  # no cache at all
        m = len(net.encoder)
        assert (a.misses, a.hits, len(a)) == (2 * m, 0, 2 * m)
        assert (b.misses, b.hits, len(b)) == (m, m, m)
        assert content_digest(clouds[1]) in {key[0] for key in b._entries}
        assert {key[0] for key in a._entries}.isdisjoint(
            {key[0] for key in b._entries})

    def test_threads_fill_only_their_own_cache(self):
        # Two runners on two threads share one program, as a shard
        # fleet's replicas do; each run searches through its own cache.
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4, seed=23)
        caches = [NeighborIndexCache(maxsize=32) for _ in range(2)]
        program = compile_kernel_program(net)
        runners = [BatchRunner(net, cache=cache, program=program)
                   for cache in caches]
        barrier = threading.Barrier(2)
        errors = []

        def serve(slot):
            try:
                barrier.wait(timeout=30)
                for cloud in clouds[slot::2]:
                    for _ in range(3):
                        runners[slot].run(cloud[None])
                        barrier.wait(timeout=30)  # interleave the two
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(slot,))
                   for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and not errors
        m = len(net.encoder)
        for slot, cache in enumerate(caches):
            assert (cache.misses, cache.hits, len(cache)) == (2 * m, 4 * m, 2 * m)
            own = {content_digest(c) for c in clouds[slot::2]}
            other = {content_digest(c) for c in clouds[1 - slot::2]}
            searched = {key[0] for key in cache._entries}
            assert own <= searched and other.isdisjoint(searched)

    def test_segmentation_propagate_searches_go_through_the_cache(self):
        # Beside its tagged module searches, PointNet++ (s) issues one
        # untagged search per propagation level, keyed on its queries.
        net = toy("PointNet++ (s)")
        graph = net.network_graph("delayed").graph
        assert sum("module" not in n.attrs for n in graph.find("search")) == 3
        clouds = clouds_for(net, 2, seed=24)
        cache = NeighborIndexCache(maxsize=64)
        runner = BatchRunner(net, cache=cache)
        first = runner.run(clouds).outputs
        m, per_cloud = len(net.encoder), len(net.encoder) + 3
        assert (cache.misses, cache.hits) == (2 * per_cloud, 0)
        tagged = [key for key in cache._entries if key[1][0] == "tag"]
        assert len(tagged) == 2 * m and len(cache) == 2 * per_cloud
        second = runner.run(clouds).outputs
        assert (cache.misses, cache.hits) == (2 * per_cloud, 2 * per_cloud)
        np.testing.assert_array_equal(first, second)


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
        cache.knn(cloud, cloud[:12], 5, dtype=np.float32)
        cache.knn(cloud, cloud[:11], 5)  # different queries
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
        real = cache_module.knn_brute_force

        def recording_knn(points, *args, **kwargs):
            computed.append(np.asarray(points).shape)
            return real(points, *args, **kwargs)

        monkeypatch.setattr(cache_module, "knn_brute_force", recording_knn)
        cache = NeighborIndexCache(maxsize=16)
        a, b = random_clouds(2, 64, seed=36)
        stack = np.stack([a] * 4)
        indices, distances = cache.knn(stack, stack[:, :10], 4)
        # Four copies of one cloud: one search over one cloud, one miss,
        # and a hit per repeat — not four misses and a (4, 64, 3) search.
        assert computed == [(64, 3)]
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 3
        assert len(cache) == 1
        ref_i, ref_d = knn_brute_force(stack, stack[:, :10], 4)
        np.testing.assert_array_equal(indices, ref_i)
        np.testing.assert_array_equal(distances, ref_d)
        # Mixed stack: the cached cloud hits (twice), the new one
        # computes once, in stack order.
        mixed = np.stack([a, b, a, b])
        indices, _ = cache.knn(mixed, mixed[:, :10], 4)
        assert computed == [(64, 3), (64, 3)]
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 6
        np.testing.assert_array_equal(
            indices, knn_brute_force(mixed, mixed[:, :10], 4)[0])

    def test_content_digest_distinguishes(self):
        a = random_clouds(1, 10, seed=34)[0]
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a.astype(np.float32))
        assert content_digest(a) != content_digest(a[:5])


class TestCacheSingleFlight:
    def test_concurrent_identical_searches_compute_once(self, monkeypatch):
        calls = []
        barrier = threading.Barrier(4)
        real = cache_module.knn_brute_force

        def slow_knn(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "knn_brute_force", slow_knn)
        cache = NeighborIndexCache(maxsize=8)
        cloud = random_clouds(1, 64, seed=60)[0]
        results = []

        def lookup():
            barrier.wait()
            results.append(cache.knn(cloud, cloud[:16], 4))

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1, "concurrent duplicates must compute once"
        assert cache.misses == 1 and cache.hits == 3
        for indices, distances in results[1:]:
            np.testing.assert_array_equal(indices, results[0][0])
            np.testing.assert_array_equal(distances, results[0][1])

    def test_concurrent_stacks_of_one_compute_once(self, monkeypatch):
        # The lifted front doors hand every per-cloud search to the
        # cache as a stack of one: four in flight for the same cloud
        # must still compute once, by the claim protocol — not by luck.
        calls = []
        barrier = threading.Barrier(4)
        real = cache_module.knn_brute_force

        def recording_knn(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "knn_brute_force", recording_knn)
        cache = NeighborIndexCache(maxsize=8)
        stack = random_clouds(1, 64, seed=62)
        results = []

        def lookup():
            barrier.wait()
            results.append(cache.knn(stack, stack[:, :16], 4))

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1, "concurrent duplicates must compute once"
        assert cache.misses == 1 and cache.hits == 3
        assert len(results) == 4
        for indices, distances in results:
            assert indices.shape == (1, 16, 4)
            np.testing.assert_array_equal(indices, results[0][0])
            np.testing.assert_array_equal(distances, results[0][1])

    def test_overlapping_stacks_in_opposite_orders_stress(self):
        # More workers than cores, a shortened switch interval, and
        # stacks that claim overlapping clouds in opposite orders: no
        # deadlock (claims are released before anyone waits), every
        # distinct cloud computes exactly once, and no counter update
        # is lost.
        import sys

        clouds = random_clouds(6, 48, seed=63)
        orders = [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0],
                  [2, 2, 0, 5, 5, 1], [3, 4, 3, 0, 1, 1]] * 2
        cache = NeighborIndexCache(maxsize=64)
        barrier = threading.Barrier(len(orders))
        results, errors = {}, []

        def lookup(slot, order):
            try:
                stack = clouds[order]
                barrier.wait(timeout=30)
                results[slot] = cache.knn(stack, stack[:, :8], 4)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lookup, args=item)
                       for item in enumerate(orders)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "stack lookups hung"
        assert not errors and len(results) == len(orders)
        stats = cache.stats()
        assert stats["misses"] == 6 and stats["size"] == 6
        assert stats["hits"] + stats["misses"] == sum(map(len, orders))
        assert not cache._pending
        reference = cache_module.knn_brute_force(clouds, clouds[:, :8], 4)
        for slot, order in enumerate(orders):
            np.testing.assert_array_equal(results[slot][0],
                                          reference[0][order])
            np.testing.assert_array_equal(results[slot][1],
                                          reference[1][order])

    def test_failed_stack_compute_releases_its_claims(self, monkeypatch):
        cache = NeighborIndexCache(maxsize=8)
        stack = random_clouds(2, 32, seed=64)
        real = cache_module.knn_brute_force
        attempts = []

        def flaky_knn(*args, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first owner dies")
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "knn_brute_force", flaky_knn)
        with pytest.raises(RuntimeError):
            cache.knn(stack, stack[:, :4], 3)
        # Nothing is left pending: the next lookup takes over.
        assert not cache._pending
        indices, _ = cache.knn(stack, stack[:, :4], 3)
        np.testing.assert_array_equal(indices,
                                      real(stack, stack[:, :4], 3)[0])

    def test_failed_compute_releases_waiters(self):
        cache = NeighborIndexCache(maxsize=8)
        attempts = []

        def compute():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first owner dies")
            return ("ok", "ok")

        with pytest.raises(RuntimeError):
            cache._single(("key",), compute)
        # The key is no longer pending: the next lookup takes over.
        assert cache._single(("key",), compute) == ("ok", "ok")

    def test_cache_stats_counters_thread_safe(self):
        cache = NeighborIndexCache(maxsize=32)
        cloud = random_clouds(1, 64, seed=0)[0]
        queries = cloud[:16]
        cache.knn(cloud, queries, 4)  # single warm miss installs the entry
        assert cache.stats()["misses"] == 1

        workers, lookups = 8, 25
        stop = threading.Event()

        def reader():
            # Concurrent stats() readers must never see torn state.
            while not stop.is_set():
                stats = cache.stats()
                assert 0.0 <= stats["hit_rate"] <= 1.0

        def hammer():
            for _ in range(lookups):
                indices, _ = cache.knn(cloud, queries, 4)
                assert indices.shape == (16, 4)

        watcher = threading.Thread(target=reader)
        watcher.start()
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for future in [pool.submit(hammer) for _ in range(workers)]:
                    future.result()
        finally:
            stop.set()
            watcher.join()
        stats = cache.stats()
        assert stats["hits"] == workers * lookups
        assert stats["misses"] == 1
        assert stats["hits"] + stats["misses"] == workers * lookups + 1
        assert stats["evictions"] == 0 and stats["size"] == 1


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
            np.testing.assert_array_equal(batched.outputs[b], single.data[0])

    @pytest.mark.parametrize("name", ["PointNet++ (s)", "DGCNN (s)"])
    def test_batched_segmentation_matches_single(self, name):
        net = build_network(name, num_classes=5, scale=0.03125)
        clouds = random_clouds(2, net.n_points, seed=41)
        runner = BatchRunner(net)
        batched = runner.run(clouds)
        assert batched.outputs.shape == (2, net.n_points, 5)
        for b in range(2):
            single = net.forward(clouds[b])
            np.testing.assert_array_equal(batched.outputs[b], single.data)

    def test_graph_executor_networks(self):
        # Networks without a hand-written batched body (pre-IR these
        # fell back to a per-cloud loop) batch through the generic
        # graph executor behind the same API.
        net = build_network("LDGCNN", num_classes=4, scale=0.0625)
        clouds = random_clouds(2, net.n_points, seed=42)
        batched = BatchRunner(net).run(clouds)
        assert batched.outputs.shape[0] == 2
        single = net.forward(clouds[0])
        np.testing.assert_array_equal(batched.outputs[0], single.data[0])

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
        np.testing.assert_array_equal(
            runner.run(clouds).outputs,
            np.concatenate([runner.run(c[None]).outputs for c in clouds]),
        )

    def test_shape_validation(self):
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        with pytest.raises(ValueError):
            BatchRunner(net).run(np.zeros((2, net.n_points + 1, 3)))
        with pytest.raises(ValueError):
            BatchRunner(net, strategy="bogus")


class TestBatchRunnerPaths:
    """Every serving path of the one runner against its per-cloud loop."""

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("backend", [None, "float64"],
                             ids=["default", "float64"])
    def test_stacks_of_one_bit_exact_vs_sequential(self, backend, name):
        # A request served alone is a stack of one: through the default
        # runner, which is the float64 kernel program, its outputs equal
        # the graph interpreter's, cloud by cloud, bit for bit.
        net = toy(name)
        clouds = random_clouds(2, net.n_points, seed=50)
        runner = BatchRunner(net, backend=backend)
        assert runner.backend == "float64"
        for cloud in clouds:
            assert_bit_exact(interpret(net, cloud[None]),
                             runner.run(cloud[None]).outputs)

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_batched_close_to_sequential(self, name):
        net = toy(name)
        clouds = random_clouds(3, net.n_points, seed=51)
        runner = BatchRunner(net)
        batched = cloud_leaves(runner.run(clouds))
        sequential = alone(runner, clouds)
        assert len(batched) == len(sequential) == 3
        for got, want in zip(batched, sequential):
            assert len(got) == len(want)
            for leaf, expected in zip(got, want):
                np.testing.assert_array_equal(leaf, expected)

    def test_repeated_clouds_in_one_stack_search_once(self):
        # The same cloud four times in one stack: the cache ends up with
        # one entry per module search, not four.
        net = toy("PointNet++ (c)")
        cloud = random_clouds(1, net.n_points, seed=53)[0]
        clouds = np.stack([cloud] * 4)
        cache = NeighborIndexCache(maxsize=64)
        result = BatchRunner(net, cache=cache).run(clouds)
        stats = cache.stats()
        assert stats["misses"] == len(net.encoder)
        assert stats["hits"] == 3 * len(net.encoder)
        expected = interpret(net, cloud[None])
        for row in result.outputs:
            np.testing.assert_array_equal(row, expected[0])

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("backend", ["float64", "float32"])
    def test_warm_cache_bit_exact_vs_uncached(self, backend, name):
        # A stack answered from a warm neighbor-index cache equals the
        # same stack searched afresh, bit for bit, on every network and
        # on the float32 kernels that serving hosts.
        net = toy(name)
        clouds = random_clouds(3, net.n_points, seed=52)
        cache = NeighborIndexCache(maxsize=512)
        cached = BatchRunner(net, cache=cache, backend=backend)
        cached.run(clouds)
        misses, hits = cache.misses, cache.hits
        got = cloud_leaves(cached.run(clouds))
        assert misses > 0 and cache.misses == misses
        assert cache.hits - hits == misses  # every search of the rerun hit
        want = cloud_leaves(BatchRunner(net, backend=backend).run(clouds))
        for leaves, expected in zip(got, want, strict=True):
            for leaf, leaf_want in zip(leaves, expected, strict=True):
                np.testing.assert_array_equal(leaf, leaf_want)

    @pytest.mark.parametrize("backend", ["float64", "float32"])
    def test_threads_share_one_runner(self, backend):
        # A server's lanes call one runner from several
        # threads at once: no run may see another's per-run state.
        net = toy("DGCNN (c)")
        clouds = np.concatenate([random_clouds(4, net.n_points, seed=54)] * 2)
        runner = BatchRunner(net, backend=backend)
        expected = [runner.run(cloud[None]).outputs for cloud in clouds]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda c: runner.run(c[None]).outputs, clouds))
        for leaf, want in zip(got, expected):
            np.testing.assert_array_equal(leaf, want)


class TestParallelRunner:
    """What is left is the constructor the benchmark ledger calls."""

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(backend="gpu")

    @pytest.mark.parametrize("kwargs", [{"backend": "process"},
                                        {"backend": "serial"},
                                        {"persistent": False}])
    def test_only_the_persistent_thread_pool_exists(self, kwargs):
        with pytest.raises(ValueError, match="persistent thread pool"):
            ParallelRunner(max_workers=2, **kwargs)

    def test_negative_workers_rejected(self):
        for workers in (0, -1):  # 0 is not "unset"
            with pytest.raises(ValueError, match="positive"):
                ParallelRunner(max_workers=workers)
