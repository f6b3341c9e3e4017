"""Sharded serving: placement, affinity routing, partitioned cache.

The contracts CI pins down: the placement planner bin-packs replicas
under a per-slot budget (and fails loudly on an impossible one), the
consistent-hash ring routes the same cloud to the same shard so the
partitioned neighbor-index cache warms once per fleet, backpressure
aggregates across replicas before a request is rejected, responses
stay bit-exact against direct BatchRunner replays of the same formed
sub-batch across every strategy and kernel backend, and shutdown
drains the fleet in dependency order without dropping or duplicating
a single request id.
"""

import glob
import os
import tempfile
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.engine.runner
import repro.serve.shard
from repro.backend.aot import _share_dir
from repro.engine import BatchRunner, ParallelRunner
from repro.engine.cache import (
    NeighborIndexCache,
    PartitionedIndexCache,
    content_digest,
    merge_cache_stats,
)
from repro.engine.runner import BatchResult
from repro.networks import build_network
from repro.serve import (
    BatchPolicy,
    HashRing,
    PlacementError,
    QueueFull,
    ServeError,
    Server,
    ShardRouter,
    bench_shard,
    plan_placement,
    replica_working_set,
)

TIMEOUT = 30.0


@pytest.fixture(scope="module")
def tiny_net():
    return build_network("PointNet++ (c)", scale=0.03125)


@pytest.fixture(scope="module")
def tiny_clouds(tiny_net):
    rng = np.random.default_rng(11)
    return rng.normal(size=(8, tiny_net.n_points, 3))


class StubRunner:
    """Deterministic runner stand-in: output = per-cloud sum."""

    def __init__(self, n_points=8, block=None):
        self.network = SimpleNamespace(n_points=n_points)
        self.block = block
        self.calls = []
        self.closed = False

    def run(self, stack):
        if self.block is not None:
            assert self.block.wait(TIMEOUT)
        stack = np.asarray(stack)
        self.calls.append(stack.shape)
        return BatchResult(stack.sum(axis=(1, 2), keepdims=True),
                           len(stack), 0.0)

    def close(self):
        self.closed = True


def stub_cloud(n_points=8, value=1.0):
    return np.full((n_points, 3), value)


def stub_router(n_shards=2, n_points=8, block=None, max_queue=64,
                policy=None, **kwargs):
    policy = policy or BatchPolicy(max_batch=4, max_wait_ms=2.0,
                                   max_queue=max_queue)
    servers = [
        Server(StubRunner(n_points=n_points, block=block), policy=policy,
               shard=shard)
        for shard in range(n_shards)
    ]
    return ShardRouter(servers, **kwargs)


# ----------------------------------------------------------- working sets


class TestWorkingSets:
    def test_kernel_path_measures_plan_and_parameters(self, tiny_net):
        total, modules = replica_working_set(tiny_net, backend="float32",
                                             batch=4)
        assert total > modules["parameters"] > 0
        # Per-module peaks partition the arena story: every bucket is
        # positive and no single bucket exceeds the whole.
        arena = {k: v for k, v in modules.items() if k != "parameters"}
        assert arena and all(v > 0 for v in arena.values())
        assert max(arena.values()) <= total

    def test_eager_path_estimates_activations(self, tiny_net):
        total, modules = replica_working_set(tiny_net, backend=None, batch=4)
        assert modules["parameters"] > 0
        assert modules["activations"] == 8 * 4 * tiny_net.n_points ** 2
        assert total == sum(modules.values())


# -------------------------------------------------------------- placement


class TestPlacement:
    def test_replicates_hot_shapes_into_empty_slots(self, tiny_net):
        plan = plan_placement([tiny_net], slots=3)
        assert len(plan.replicas) == 3
        assert plan.by_shape() == {tiny_net.n_points: (0, 1, 2)}
        assert [r.slot for r in plan.replicas] == [0, 1, 2]
        assert all(r.working_set_bytes > 0 for r in plan.replicas)

    def test_two_networks_spread_before_replicating(self, tiny_net):
        other = build_network("PointNet++ (c)", scale=0.0625)
        plan = plan_placement([tiny_net, other], slots=2)
        # Each network is placed exactly once before anything
        # replicates, and they land on distinct slots.
        assert len(plan.replicas) == 2
        assert {r.n_points for r in plan.replicas} == {
            tiny_net.n_points, other.n_points
        }
        assert len({r.slot for r in plan.replicas}) == 2

    def test_impossible_budget_fails_at_plan_time(self, tiny_net):
        with pytest.raises(PlacementError, match="fits no slot"):
            plan_placement([tiny_net], slots=2, budget_bytes=16)

    def test_budget_limits_replication(self, tiny_net):
        total, _ = replica_working_set(tiny_net, batch=8)
        # Budget fits exactly one replica per slot; the second pass
        # still fills both slots because each is empty.
        plan = plan_placement([tiny_net], slots=2, budget_bytes=total)
        assert len(plan.replicas) == 2
        assert max(plan.slot_bytes()) <= total

    def test_hot_weights_and_determinism(self, tiny_net):
        other = build_network("PointNet++ (c)", scale=0.0625)
        # Same architecture at two scales shares a display name, so
        # heat (and the count below) keys on shape class instead.
        hot = {other.n_points: 10.0}
        plans = [
            plan_placement([tiny_net, other], slots=4, hot=hot)
            for _ in range(2)
        ]
        assert plans[0] == plans[1]  # same inputs, same plan
        by_shape = {}
        for replica in plans[0].replicas:
            by_shape[replica.n_points] = by_shape.get(replica.n_points, 0) + 1
        # The hot shape takes the spare slots.
        assert by_shape[other.n_points] > by_shape[tiny_net.n_points]

    def test_duplicate_n_points_rejected(self, tiny_net):
        with pytest.raises(ValueError, match="n_points"):
            plan_placement([tiny_net, tiny_net], slots=2)

    def test_describe_names_every_replica(self, tiny_net):
        plan = plan_placement([tiny_net], slots=2)
        text = plan.describe()
        assert "2 replica(s)" in text and tiny_net.name in text


# ------------------------------------------------------------- hash ring


class TestHashRing:
    def test_owner_is_deterministic(self):
        ring = HashRing([0, 1, 2], points=32)
        key = content_digest(stub_cloud(value=3.0))
        assert ring.owner(key) == ring.owner(key)
        assert ring.order(key) == ring.order(key)
        assert sorted(ring.order(key)) == [0, 1, 2]

    def test_member_removal_only_remaps_its_keys(self):
        big = HashRing([0, 1, 2], points=64)
        small = HashRing([0, 1], points=64)
        rng = np.random.default_rng(5)
        moved = 0
        for i in range(64):
            key = content_digest(rng.normal(size=(4, 3)))
            before, after = big.owner(key), small.owner(key)
            if before != 2:
                # Keys not owned by the removed member stay put.
                assert after == before
            else:
                moved += 1
        assert moved > 0  # the removed member did own something

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one member"):
            HashRing([])
        with pytest.raises(ValueError, match="points"):
            HashRing([0], points=0)


# -------------------------------------------------------- partitioned cache


class TestPartitionedCache:
    def test_budget_splits_across_shards(self):
        cache = PartitionedIndexCache(4, maxsize=32)
        assert cache.n_shards == 4
        assert all(cache.shard(i).maxsize == 8 for i in range(4))
        assert PartitionedIndexCache(8, maxsize=4).shard(0).maxsize == 1

    def test_aggregate_stats_merge_partitions(self):
        cache = PartitionedIndexCache(2, maxsize=8)
        rng = np.random.default_rng(1)
        with NeighborIndexCacheProbe(cache.shard(0)) as probe:
            probe.miss(rng.normal(size=(4, 3)))
            probe.hit()
        stats = cache.stats()
        assert stats["shards"] == 2
        assert len(stats["per_shard"]) == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0

    def test_merge_cache_stats_recomputes_rate(self):
        merged = merge_cache_stats([
            {"size": 1, "maxsize": 4, "hits": 3, "misses": 1,
             "evictions": 0, "hit_rate": 0.75},
            {"size": 2, "maxsize": 4, "hits": 0, "misses": 4,
             "evictions": 1, "hit_rate": 0.0},
        ])
        assert merged["hits"] == 3 and merged["misses"] == 5
        assert merged["hit_rate"] == pytest.approx(3 / 8)
        assert merged["evictions"] == 1


class NeighborIndexCacheProbe:
    """Drive one cache partition's counters through its public API."""

    def __init__(self, cache):
        assert isinstance(cache, NeighborIndexCache)
        self.cache = cache
        self.cloud = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def miss(self, cloud):
        self.cloud = np.asarray(cloud)
        self.cache.knn(self.cloud, self.cloud, 2)

    def hit(self):
        self.cache.knn(self.cloud, self.cloud, 2)


# ----------------------------------------------------------------- router


class TestShardRouter:
    def test_shard_ids_must_match_positions(self):
        policy = BatchPolicy(max_batch=2, max_wait_ms=1.0)
        servers = [Server(StubRunner(), policy=policy, shard=1)]
        try:
            with pytest.raises(ValueError, match="shard ids must match"):
                ShardRouter(servers)
        finally:
            servers[0].close(drain=False)

    def test_unroutable_shape_rejected(self):
        router = stub_router(n_shards=2, n_points=8)
        with router:
            with pytest.raises(ServeError, match="n_points=5"):
                router.submit(stub_cloud(5))
            with pytest.raises(ValueError, match="expected an"):
                router.submit(np.zeros((8, 2)))
        assert router.stats()["routing"]["unroutable"] == 1

    def test_same_cloud_lands_on_same_shard(self):
        router = stub_router(n_shards=4, n_points=8)
        with router:
            for value in range(6):
                cloud = stub_cloud(value=float(value))
                futures = [router.submit(cloud) for _ in range(3)]
                shards = {f.result(TIMEOUT).shard for f in futures}
                assert len(shards) == 1  # affinity: one owner per cloud
        stats = router.stats()["routing"]
        assert stats["affinity_hits"] == stats["routed"] == 18
        assert stats["spilled"] == 0

    def test_distinct_clouds_spread_across_shards(self):
        router = stub_router(n_shards=2, n_points=8)
        with router:
            owners = set()
            for value in range(32):
                future = router.submit(stub_cloud(value=float(value)))
                owners.add(future.result(TIMEOUT).shard)
        assert owners == {0, 1}  # the ring uses the whole fleet

    def test_backpressure_spills_then_aggregates(self):
        gate = threading.Event()
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=2)
        router = stub_router(n_shards=2, block=gate, policy=policy)
        try:
            cloud = stub_cloud(value=2.5)
            admitted = []
            # Keep pushing the same cloud: its owner shard fills, then
            # submissions spill to the other shard, then the aggregate
            # QueueFull carries every shard's depth.
            deadline = time.time() + TIMEOUT
            rejected = None
            while time.time() < deadline and rejected is None:
                try:
                    admitted.append(router.submit(cloud))
                except QueueFull as exc:
                    rejected = exc
            assert rejected is not None
            assert "all 2 replica(s)" in str(rejected)
            assert "shard 0" in str(rejected) and "shard 1" in str(rejected)
            stats = router.stats()["routing"]
            assert stats["spilled"] > 0 and stats["rejected"] >= 1
        finally:
            gate.set()
            router.close()
        assert all(f.result(TIMEOUT) for f in admitted)

    def test_no_dropped_or_duplicated_ids_under_concurrency(self):
        router = stub_router(n_shards=2, n_points=8, max_queue=4096)
        results = {}
        lock = threading.Lock()
        errors = []

        def tenant_load(tenant, count):
            rng = np.random.default_rng(hash(tenant) % 2 ** 32)
            for i in range(count):
                rid = f"{tenant}-{i}"
                cloud = np.full((8, 3), float(rng.integers(0, 5)))
                try:
                    resp = router.request(cloud, request_id=rid,
                                          tenant=tenant, timeout=TIMEOUT)
                except Exception as exc:  # noqa: BLE001 - recorded, asserted
                    with lock:
                        errors.append((rid, exc))
                    continue
                with lock:
                    results.setdefault(resp.request_id, []).append(resp)

        threads = [
            threading.Thread(target=tenant_load, args=(f"t{t}", 25))
            for t in range(4)
        ]
        with router:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT)
        assert not errors
        expected = {f"t{t}-{i}" for t in range(4) for i in range(25)}
        assert set(results) == expected  # nothing dropped
        assert all(len(v) == 1 for v in results.values())  # nothing doubled
        totals = router.stats()
        assert totals["completed"] == 100
        # Every batch id a response carries is a real admitted id, and
        # each response rode a batch containing its own id.
        for resp_list in results.values():
            resp = resp_list[0]
            assert resp.request_id in resp.batch_ids
            assert set(resp.batch_ids) <= expected

    def test_drain_close_resolves_everything(self):
        router = stub_router(n_shards=2, n_points=8, max_queue=4096)
        futures = [
            router.submit(stub_cloud(value=float(i % 3)),
                          request_id=f"d{i}")
            for i in range(20)
        ]
        router.close(drain=True)
        ids = {f.result(TIMEOUT).request_id for f in futures}
        assert ids == {f"d{i}" for i in range(20)}
        router.close()  # idempotent
        with pytest.raises(Exception):
            router.submit(stub_cloud())

    def test_external_dispatch_pool_not_closed_by_servers(self):
        pool = ParallelRunner(max_workers=2, backend="thread",
                              persistent=True)
        try:
            policy = BatchPolicy(max_batch=2, max_wait_ms=1.0)
            servers = [
                Server(StubRunner(), policy=policy, dispatch=pool,
                       shard=shard)
                for shard in range(2)
            ]
            assert all(s.workers == pool.max_workers for s in servers)
            router = ShardRouter(servers, dispatch=pool)
            resp = router.request(stub_cloud(value=4.0), timeout=TIMEOUT)
            assert np.allclose(resp.output, stub_cloud(value=4.0).sum())
            inner = pool._pool
            assert inner is not None
            # The router owns the pool's shutdown, not the replicas: a
            # replica closing must not strand its siblings.
            router.replica(0).close(drain=True)
            assert pool._pool is inner  # untouched by the replica
            router.close()
            assert pool._pool is None  # shut down exactly once, by router
        finally:
            pool.close()

    def test_server_rejects_ambiguous_dispatch_config(self):
        pool = ParallelRunner(max_workers=2, backend="thread",
                              persistent=True)
        try:
            with pytest.raises(ValueError, match="not both"):
                Server(StubRunner(), workers=4, dispatch=pool)
            with pytest.raises(ValueError, match="persistent"):
                Server(StubRunner(),
                       dispatch=ParallelRunner(max_workers=2,
                                               backend="thread"))
        finally:
            pool.close()

    def test_fair_queue_round_robin_survives_router_fan_out(self):
        # Satellite contract: fanning tenants out across shards keeps
        # each shard's FairQueue round-robin intact — a loud tenant
        # cannot starve a quiet one anywhere in the fleet — and the
        # aggregated backpressure path never deadlocks the submitters.
        gate = threading.Event()
        policy = BatchPolicy(max_batch=2, max_wait_ms=0.0, max_queue=64)
        router = stub_router(n_shards=2, block=gate, policy=policy)
        try:
            # Find one cloud owned by each shard, then park both
            # dispatchers inside their runners.
            owned = {}
            for value in range(64):
                cloud = stub_cloud(value=float(value))
                shard = router._rings[8].owner(
                    content_digest(np.asarray(cloud, dtype=np.float64))
                )
                owned.setdefault(shard, cloud)
                if len(owned) == 2:
                    break
            assert set(owned) == {0, 1}
            parked = [router.submit(owned[s], tenant="warm")
                      for s in (0, 1)]
            deadline = time.time() + TIMEOUT
            while any(len(router.replica(s)._queue) > 0 for s in (0, 1)) \
                    and time.time() < deadline:
                time.sleep(0.002)
            quiet, loud = [], []
            for shard in (0, 1):
                loud += [
                    router.submit(owned[shard], request_id=f"s{shard}l{i}",
                                  tenant="loud")
                    for i in range(4)
                ]
                quiet.append(
                    router.submit(owned[shard], request_id=f"s{shard}q0",
                                  tenant="quiet")
                )
            gate.set()
            for shard, future in zip((0, 1), quiet):
                resp = future.result(TIMEOUT)
                assert resp.shard == shard  # affinity held under load
                # Round-robin within the shard: the quiet tenant rides
                # the first post-release batch next to loud's head,
                # instead of queueing behind loud's whole backlog.
                assert resp.batch_ids == (f"s{shard}l0", f"s{shard}q0")
        finally:
            gate.set()
            router.close()
        assert all(f.result(TIMEOUT) for f in parked + loud)

    def test_random_affinity_is_seeded_control_arm(self):
        router_a = stub_router(n_shards=2, affinity="random", seed=3)
        router_b = stub_router(n_shards=2, affinity="random", seed=3)
        with router_a, router_b:
            shards_a = [
                router_a.request(stub_cloud(value=float(i)),
                                 timeout=TIMEOUT).shard
                for i in range(8)
            ]
            shards_b = [
                router_b.request(stub_cloud(value=float(i)),
                                 timeout=TIMEOUT).shard
                for i in range(8)
            ]
        assert shards_a == shards_b  # same seed, same control routing

    def test_unknown_affinity_rejected(self):
        with pytest.raises(ValueError, match="unknown affinity"):
            stub_router(affinity="sticky")


# ----------------------------------------------- end-to-end bit-exactness


class TestShardExactness:
    @pytest.mark.parametrize("strategy", ["original", "delayed", "limited"])
    def test_bit_exact_vs_direct_replay_per_strategy(self, tiny_net,
                                                     tiny_clouds, strategy):
        self._assert_exact(tiny_net, tiny_clouds, strategy, None)

    @pytest.mark.parametrize("backend", [None, "float64", "float32", "int8"])
    def test_bit_exact_vs_direct_replay_per_backend(self, tiny_net,
                                                    tiny_clouds, backend):
        self._assert_exact(tiny_net, tiny_clouds, "delayed", backend)

    @staticmethod
    def _assert_exact(net, clouds, strategy, backend):
        policy = BatchPolicy(max_batch=4, max_wait_ms=2.0, max_queue=256)
        direct = BatchRunner(net, strategy=strategy, backend=backend)
        router = ShardRouter.hosting(
            net, shards=2, strategy=strategy, backend=backend,
            policy=policy, cache_size=64, seed=0,
        )
        with router:
            futures = {
                f"x{i}": router.submit(clouds[i % len(clouds)],
                                       request_id=f"x{i}")
                for i in range(12)
            }
            responses = {rid: f.result(TIMEOUT)
                         for rid, f in futures.items()}
        assert set(responses) == set(futures)
        for rid, resp in responses.items():
            # Replay the exact formed sub-batch on a direct runner:
            # same stack composition => same BLAS blocking => bit-equal.
            stack = np.stack([
                clouds[int(member[1:]) % len(clouds)]
                for member in resp.batch_ids
            ])
            replay = direct.run(stack).per_cloud()
            position = resp.batch_ids.index(rid)
            assert np.array_equal(np.asarray(resp.output),
                                  np.asarray(replay[position]))

    def test_affinity_beats_random_on_repeated_clouds(self, tiny_net):
        rng = np.random.default_rng(9)
        clouds = [rng.normal(size=(tiny_net.n_points, 3)) for _ in range(4)]
        sequence = [i % len(clouds) for i in range(24)]
        policy = BatchPolicy(max_batch=4, max_wait_ms=1.0, max_queue=256)

        def hit_rate(mode):
            router = ShardRouter.hosting(
                tiny_net, shards=2, backend="float32", policy=policy,
                cache_size=64, affinity=mode, seed=13,
            )
            with router:
                for i, index in enumerate(sequence):
                    router.request(clouds[index], request_id=f"h{i}",
                                   timeout=TIMEOUT)
            return router.stats()["cache"]["hit_rate"]

        assert hit_rate("content") > hit_rate("random")


# ------------------------------------------------- partial start-up failure


def shared_table_files():
    """The parameter tables this process has published and not removed."""
    return glob.glob(os.path.join(_share_dir(),
                                  f"repro-params-{os.getpid()}-*"))


class TestHostingFailure:
    """``ShardRouter.hosting`` fails whole: nothing it started survives."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Every Server / dispatch pool ``hosting`` constructs."""
        started = SimpleNamespace(servers=[], pools=[])

        class RecordingServer(Server):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.servers.append(self)

        class RecordingPool(ParallelRunner):
            closes = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.pools.append(self)

            def close(self):
                self.closes += 1
                super().close()

        monkeypatch.setattr(repro.serve.shard, "Server", RecordingServer)
        monkeypatch.setattr(repro.serve.shard, "ParallelRunner",
                            RecordingPool)
        return started

    @staticmethod
    def fail_on_call(target, number, error):
        """``target``, except that call ``number`` (1-based) raises."""
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == number:
                raise error
            return target(*args, **kwargs)

        return flaky

    def test_failed_table_publish_leaves_no_file(self, monkeypatch, started):
        # Two hosted networks: the first table is published, creating
        # the second one's file fails.
        nets = [build_network("PointNet++ (c)", scale=scale)
                for scale in (0.03125, 0.0625)]
        monkeypatch.setattr(tempfile, "mkstemp", self.fail_on_call(
            tempfile.mkstemp, 2, OSError(28, "No space left on device")))
        with pytest.raises(OSError, match="No space left"):
            ShardRouter.hosting(nets, shards=2, backend="float32")
        assert shared_table_files() == []
        assert started.servers == []  # tables are published first

    def test_failed_replica_closes_its_started_siblings(self, monkeypatch,
                                                        started, tiny_net):
        monkeypatch.setattr(repro.engine.runner, "BatchRunner",
                            self.fail_on_call(BatchRunner, 2,
                                              RuntimeError("replica 1 died")))
        with pytest.raises(RuntimeError, match="replica 1 died"):
            ShardRouter.hosting(tiny_net, shards=2, backend="float32")
        assert len(started.servers) == 1 and len(started.pools) == 1
        assert started.servers[0]._closed
        assert not started.servers[0]._thread.is_alive()
        assert started.pools[0].closes == 1
        assert shared_table_files() == []


# ---------------------------------------------------------------- harness


class TestShardBench:
    def test_bench_shard_row_schema_and_gates(self):
        from repro.engine.bench import validate_row

        row = bench_shard(scale=0.03125, backend="float32",
                          shard_counts=(2,), requests=12,
                          distinct_clouds=3, tenants=2, max_batch=4,
                          affinity_passes=2, seed=0)
        validate_row(row, name="shard")  # the shard row schema holds
        assert row["baseline"].startswith("single-Server")
        # shard_counts always folds in the single-shard baseline.
        assert [cell["shards"] for cell in row["grid"]] == [1, 2]
        for cell in row["grid"]:
            assert cell["completed"] == 12
            assert len(cell["per_shard"]) == cell["shards"]
            assert cell["scaling_vs_single"] > 0
        assert row["ids_ok"] and row["responses_exact"]
        assert row["scaling_2shard"] == row["grid"][1]["scaling_vs_single"]
        assert 0.0 <= row["random_hit_rate"] <= 1.0
        assert 0.0 <= row["affinity_hit_rate"] <= 1.0
