"""Tests for the async N/F-overlap scheduler, frontier and schedule lowering."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import (
    AsyncRunner,
    BatchRunner,
    NeighborIndexCache,
    OverlapExecutor,
    cache as cache_module,
)
from repro.graph import (
    GraphExecutor,
    build_module_graph,
    module_graph,
    node_lane,
    schedule_graph,
)
from repro.networks import ALL_NETWORKS, build_network
from repro.neural import Tensor, no_grad

SMALL = {"num_classes": 4, "scale": 0.0625}


def random_clouds(batch, n, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, n, 3))


def sa1_spec():
    return build_network("PointNet++ (c)", **SMALL).encoder[0].spec


class TestFrontier:
    def test_walks_whole_graph_in_dependency_order(self):
        graph = module_graph(sa1_spec(), "delayed")
        frontier = graph.frontier()
        completed = []
        while not frontier.done:
            ready = frontier.take()
            assert ready, "valid graph must always have ready nodes"
            for node in ready:
                assert all(parent in completed for parent in node.inputs)
                frontier.complete(node.id)
                completed.append(node.id)
        assert sorted(completed) == sorted(n.id for n in graph)
        assert len(frontier) == 0

    def test_search_and_first_matmul_ready_together(self):
        # The delayed rewrite is what makes N/F overlap possible: after
        # input+sample complete, the search and the first hoisted MLP
        # layer are ready simultaneously.
        graph = module_graph(sa1_spec(), "delayed")
        frontier = graph.frontier()
        for node in frontier.take():
            frontier.complete(node.id)
        kinds = sorted(node.kind for node in frontier.ready())
        assert kinds == ["matmul", "search"]

    def test_complete_untaken_node_rejected(self):
        frontier = module_graph(sa1_spec(), "delayed").frontier()
        with pytest.raises(ValueError):
            frontier.complete(0)

    def test_double_complete_rejected(self):
        frontier = module_graph(sa1_spec(), "delayed").frontier()
        node = frontier.take()[0]
        frontier.complete(node.id)
        with pytest.raises(ValueError):
            frontier.complete(node.id)

    def test_complete_reports_unlocked_consumers(self):
        graph = build_module_graph(sa1_spec())
        frontier = graph.frontier()
        taken = {node.kind: node for node in frontier.take()}
        assert frontier.complete(taken["input"].id) == ()
        unlocked = frontier.complete(taken["sample"].id)
        assert [node.kind for node in unlocked] == ["search"]


class TestScheduleLowering:
    def test_lanes(self):
        graph = module_graph(sa1_spec(), "delayed")
        schedule = schedule_graph(graph)
        for entry in schedule:
            expected = "N" if entry.node.kind in ("sample", "search") else "F"
            assert entry.lane == expected
            assert node_lane(entry.node) == expected
            assert schedule.lane(entry.node.id) == expected

    def test_overlap_only_after_delaying_aggregation(self):
        # The strategy story as a static schedule property: original
        # order cannot overlap N with F; delayed overlaps the whole MLP
        # chain; limited overlaps exactly the first (linear) product.
        spec = sa1_spec()
        by_strategy = {
            strategy: schedule_graph(module_graph(spec, strategy))
            for strategy in ("original", "delayed", "limited")
        }
        assert by_strategy["original"].overlap_steps() == ()
        assert len(by_strategy["delayed"].overlap_steps()) >= 1
        assert len(by_strategy["limited"].overlap_steps()) >= 1

        overlapped = {
            entry.node.kind
            for step in by_strategy["delayed"].overlap_steps()
            for entry in step
        }
        assert overlapped == {"search", "matmul"}

    def test_steps_respect_dependencies(self):
        for strategy in ("original", "delayed", "limited"):
            schedule = schedule_graph(module_graph(sa1_spec(), strategy))
            steps = {entry.node.id: entry.step for entry in schedule}
            for entry in schedule:
                for parent in entry.node.inputs:
                    assert steps[parent] < entry.step
            assert schedule.width >= 1

    def test_describe_mentions_overlap(self):
        text = schedule_graph(module_graph(sa1_spec(), "delayed")).describe()
        assert "overlap step" in text and "search[N]" in text


class ThreadSafeLog:
    """Observer capturing start/finish events from any thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.events = []

    def __call__(self, event, node):
        with self.lock:
            self.events.append((event, node.id))

    def started_before_finished(self, node_id, parent_id):
        starts = {}
        finishes = {}
        for index, (event, nid) in enumerate(self.events):
            if event == "start":
                starts.setdefault(nid, index)
            else:
                finishes[nid] = index
        return finishes[parent_id] < starts[node_id]


class TestOverlapExecutor:
    @pytest.mark.parametrize("strategy", ["original", "delayed", "limited"])
    def test_bit_exact_vs_eager_executor(self, strategy):
        net = build_network("PointNet++ (c)", **SMALL)
        module = net.encoder[0]
        cloud = random_clouds(1, net.n_points, seed=7)[0]
        graph = module.graph(strategy)
        with no_grad(), ThreadPoolExecutor(max_workers=2) as pool:
            eager = GraphExecutor().run(graph, module, cloud[None],
                                        Tensor(cloud.copy()))
            overlap = OverlapExecutor(pool).run(
                graph, module, cloud[None], Tensor(cloud.copy())
            )
        np.testing.assert_array_equal(eager.features.data, overlap.features.data)
        np.testing.assert_array_equal(eager.indices, overlap.indices)
        np.testing.assert_array_equal(eager.centroid_idx, overlap.centroid_idx)

    @pytest.mark.parametrize("strategy", ["original", "delayed", "limited"])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_dependency_order_property(self, strategy, pooled):
        # No node starts before every producer has finished — in
        # particular, no aggregation (F side) runs before its neighbor
        # search (N producer), no matter how the threads interleave.
        # One observer per module run: node ids restart per graph.
        net = build_network("PointNet++ (c)", **SMALL)
        cloud = random_clouds(1, net.n_points, seed=8)[0]
        pool = ThreadPoolExecutor(max_workers=3) if pooled else None
        try:
            for trial in range(5):
                coords, feats = cloud, Tensor(cloud.copy())
                with no_grad():
                    for module in net.encoder:
                        graph = module.graph(strategy)
                        log = ThreadSafeLog()
                        executor = OverlapExecutor(pool, observer=log)
                        out = module(coords, feats, strategy=strategy,
                                     executor=executor)
                        coords, feats = out.coords, out.features
                        assert len(log.events) == 2 * len(graph)
                        for node in graph:
                            for parent in node.inputs:
                                assert log.started_before_finished(
                                    node.id, parent
                                ), (
                                    f"{graph.name}: node {node.id} "
                                    f"({node.kind}) started before producer "
                                    f"{parent} finished (trial {trial})"
                                )
        finally:
            if pool is not None:
                pool.shutdown()

    def test_stalls_on_cyclic_graph(self):
        graph = module_graph(sa1_spec(), "delayed")
        broken = graph.copy()
        # Frontier over a graph whose first node waits on a later one
        # can never make progress; the executor must say so rather than
        # spin or deadlock.
        from repro.graph import Node

        nodes = list(broken.nodes)
        nodes[0] = Node(nodes[0].id, nodes[0].kind, (nodes[-1].id,),
                        dict(nodes[0].attrs), nodes[0].phase)
        broken.nodes = nodes
        net = build_network("PointNet++ (c)", **SMALL)
        cloud = random_clouds(1, net.n_points, seed=9)[0]
        with no_grad(), pytest.raises(RuntimeError, match="stalled"):
            OverlapExecutor(None).run(
                broken, net.encoder[0], cloud[None], Tensor(cloud.copy())
            )


class TestAsyncRunner:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_bit_exact_vs_eager_all_networks(self, name):
        scale = 0.03125 if "(s)" in name else 0.0625
        net = build_network(name, num_classes=4, scale=scale)
        clouds = random_clouds(2, net.n_points, seed=50)
        runner = AsyncRunner(net, max_workers=2, in_flight=2)
        result = runner.run(clouds)
        expected = BatchRunner(net).run_sequential(clouds)
        if isinstance(result.outputs, list):  # detection: dict per cloud
            assert len(result.outputs) == len(expected.outputs)
            for got, want in zip(result.outputs, expected.outputs):
                assert set(got) == set(want)
                for key in got:
                    np.testing.assert_array_equal(got[key].data, want[key].data)
        else:
            np.testing.assert_array_equal(result.outputs, expected.outputs)
        assert result.batch_size == 2

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_agree(self, backend):
        net = build_network("PointNet++ (c)", **SMALL)
        clouds = random_clouds(3, net.n_points, seed=51)
        runner = AsyncRunner(net, backend=backend, max_workers=2)
        expected = BatchRunner(net).run_sequential(clouds)
        np.testing.assert_array_equal(
            runner.run(clouds).outputs, expected.outputs
        )

    def test_single_worker_degrades_to_serial_frontier(self):
        net = build_network("PointNet++ (c)", **SMALL)
        clouds = random_clouds(2, net.n_points, seed=52)
        runner = AsyncRunner(net, max_workers=1)
        assert runner.in_flight == 1
        expected = BatchRunner(net).run_sequential(clouds)
        np.testing.assert_array_equal(
            runner.run(clouds).outputs, expected.outputs
        )

    def test_bad_config_rejected(self):
        net = build_network("PointNet++ (c)", **SMALL)
        with pytest.raises(ValueError):
            AsyncRunner(net, backend="bogus")
        with pytest.raises(ValueError):
            AsyncRunner(net, max_workers=0)
        with pytest.raises(ValueError):
            AsyncRunner(net, in_flight=-1)

    def test_cache_shared_across_in_flight_clouds(self):
        net = build_network("PointNet++ (c)", **SMALL)
        cloud = random_clouds(1, net.n_points, seed=53)[0]
        # The same cloud four times, all in flight concurrently: the
        # cache must end up with one entry per module search, not four.
        clouds = np.stack([cloud] * 4)
        cache = NeighborIndexCache(maxsize=64)
        runner = AsyncRunner(net, cache=cache, max_workers=4, in_flight=4)
        result = runner.run(clouds)
        expected = BatchRunner(net).run_sequential(clouds)
        np.testing.assert_array_equal(result.outputs, expected.outputs)
        stats = cache.stats()
        assert stats["misses"] == len(net.encoder)
        assert stats["hits"] == 3 * len(net.encoder)

    def test_pools_persist_across_runs_and_close_is_reusable(self):
        net = build_network("PointNet++ (c)", **SMALL)
        clouds = random_clouds(2, net.n_points, seed=54)
        with AsyncRunner(net, max_workers=2, in_flight=2) as runner:
            first = runner.run(clouds)
            pools = (runner._search_pool, runner._cloud_pool)
            assert all(pool is not None for pool in pools)
            second = runner.run(clouds)
            assert (runner._search_pool, runner._cloud_pool) == pools
        assert runner._search_pool is None  # context exit released them
        runner.close()  # idempotent
        third = runner.run(clouds)  # pools recreated on demand
        runner.close()
        np.testing.assert_array_equal(first.outputs, second.outputs)
        np.testing.assert_array_equal(first.outputs, third.outputs)

    def test_plan_exposed_like_batch_runner(self):
        net = build_network("PointNet++ (c)", **SMALL)
        runner = AsyncRunner(net)
        assert runner.plan.network == net.name
        assert len(runner.plan) == len(net.encoder)


class TestCacheSingleFlight:
    def test_concurrent_identical_searches_compute_once(self, monkeypatch):
        calls = []
        barrier = threading.Barrier(4)
        real = cache_module.raw_knn

        def slow_knn(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "raw_knn", slow_knn)
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
        real = cache_module.raw_knn

        def recording_knn(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "raw_knn", recording_knn)
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
        reference = cache_module.raw_knn(clouds, clouds[:, :8], 4)
        for slot, order in enumerate(orders):
            np.testing.assert_array_equal(results[slot][0],
                                          reference[0][order])
            np.testing.assert_array_equal(results[slot][1],
                                          reference[1][order])

    def test_failed_stack_compute_releases_its_claims(self, monkeypatch):
        cache = NeighborIndexCache(maxsize=8)
        stack = random_clouds(2, 32, seed=64)
        real = cache_module.raw_knn
        attempts = []

        def flaky_knn(*args, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first owner dies")
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "raw_knn", flaky_knn)
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

    def test_ball_single_flight_path(self):
        cache = NeighborIndexCache(maxsize=8)
        cloud = random_clouds(1, 48, seed=61)[0]
        first = cache.ball(cloud, cloud[:8], 0.8, 4)
        second = cache.ball(cloud, cloud[:8], 0.8, 4)
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_array_equal(first[0], second[0])
