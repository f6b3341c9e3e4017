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

import repro.backend.aot
import repro.backend.runtime
import repro.engine.runner
import repro.serve.shard
from repro.backend import ParameterTable, ProgramCache, compile_kernel_program
from repro.backend.aot import _share_dir
from repro.engine import BatchRunner, ParallelRunner
from repro.engine.cache import (
    NeighborIndexCache,
    PartitionedIndexCache,
    content_digest,
    merge_cache_stats,
)
from repro.engine.runner import BatchResult
from repro.networks import ALL_NETWORKS, build_network
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


@pytest.fixture
def spies(monkeypatch):
    """Counts of what starting a kernel-backend fleet may do only once."""
    counts = {"exports": 0, "compiles": 0, "measuring_runs": 0, "shares": 0}

    def counted(name, target):
        def spy(*args, **kwargs):
            counts[name] += 1
            return target(*args, **kwargs)
        return spy

    for_graph = ParameterTable.for_graph.__func__
    monkeypatch.setattr(
        ParameterTable, "for_graph",
        classmethod(counted("exports", for_graph)))
    program = repro.backend.runtime.KernelProgram
    monkeypatch.setattr(program, "_compile",
                        counted("compiles", program._compile))
    monkeypatch.setattr(
        repro.backend.runtime, "_MeasuringPool",
        counted("measuring_runs", repro.backend.runtime._MeasuringPool))
    monkeypatch.setattr(repro.backend.aot, "share_table",
                        counted("shares", repro.backend.aot.share_table))
    return counts


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

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_kernel_path_equals_a_direct_measurement(self, name):
        # The size comes from one cloud and a multiplication; it must be
        # the size a fresh program measures on a whole (batch, N, 3) stack.
        net = build_network(name,
                            scale=0.03125 if "(s)" in name else 0.0625)
        for batch in (1, 4, 8):
            total, _ = replica_working_set(net, backend="float32",
                                           batch=batch)
            direct = compile_kernel_program(net, "delayed", "float32")
            stack = np.zeros((batch, net.n_points, 3), dtype=np.float32)
            assert total == direct.plan_for(stack).total_bytes \
                + direct.table.nbytes, (name, batch)
            assert direct.memory_stats()["heights"] == (batch,)

    def test_warmed_cache_directory_sizes_without_running(self, tiny_net,
                                                          tmp_path, spies):
        # The CLI hands --program-cache over as a string.
        warm = ProgramCache(tmp_path)
        program = warm.program_for(tiny_net.network_graph("delayed"),
                                   tiny_net, "float32")
        cloud = np.zeros((1, tiny_net.n_points, 3))
        program.plan_for(cloud)
        warm.store(program)
        expected = program.plan_for(cloud, height=8).total_bytes \
            + program.table.nbytes
        spies.update(dict.fromkeys(spies, 0))
        for cache in (str(tmp_path), ProgramCache(tmp_path)):
            total, _ = replica_working_set(tiny_net, backend="float32",
                                           batch=8, program_cache=cache)
            assert total == expected
            plan = plan_placement([tiny_net], slots=2, backend="float32",
                                  batch=8, program_cache=cache)
            assert plan.replicas[0].working_set_bytes == expected
        assert spies["measuring_runs"] == 0 and spies["exports"] == 0
        with ShardRouter.hosting(tiny_net, shards=2, backend="float32",
                                 program_cache=str(tmp_path)) as router:
            cloud = np.random.default_rng(2).normal(
                size=(tiny_net.n_points, 3))
            router.request(cloud, timeout=TIMEOUT)
            assert router.plan.replicas[0].working_set_bytes == expected
        assert spies["measuring_runs"] == 0 and spies["exports"] == 0
        assert spies["shares"] == 0

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

    @pytest.mark.parametrize("backend, scratch", [
        ("float32", "arena (per-cloud plan x 4)"),
        (None, "activations (estimate, batch 4)"),
    ])
    def test_describe_sums_each_working_set(self, tiny_net, backend, scratch):
        plan = plan_placement([tiny_net], slots=2, backend=backend, batch=4)
        lines = plan.describe().splitlines()[1:]
        assert len(lines) == 2
        for line, replica in zip(lines, plan.replicas):
            table = dict(replica.modules)["parameters"]
            assert line == (
                f"  replica {replica.shard} -> slot {replica.slot}: "
                f"{tiny_net.name} (n={tiny_net.n_points}), "
                f"{replica.working_set_bytes} B = "
                f"{replica.working_set_bytes - table} B {scratch} + "
                f"{table} B table")


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

    def test_fleet_shares_one_program_table_and_plan(self, spies):
        # Counted, not timed: starting two replicas of one network and
        # serving on both costs what starting one server costs.
        net = build_network("PointNet++ (c)", scale=0.03125,
                            rng=np.random.default_rng(41))
        rng = np.random.default_rng(5)
        with ShardRouter.hosting([net], shards=2, backend="float32") as router:
            assert router.n_shards == 2
            ring = router._rings[net.n_points]
            clouds = {}
            while len(clouds) < 2:  # one cloud owned by each replica
                cloud = rng.normal(size=(net.n_points, 3))
                clouds.setdefault(ring.owner(content_digest(cloud)), cloud)
            routed = {shard: router.request(cloud, timeout=TIMEOUT)
                      for shard, cloud in clouds.items()}
        assert {shard: resp.shard for shard, resp in routed.items()} \
            == {0: 0, 1: 1}
        assert spies == {"exports": 1, "compiles": 1, "measuring_runs": 1,
                         "shares": 0}
        with Server.hosting([net], backend="float32") as server:
            for shard, cloud in clouds.items():
                alone = server.request(cloud, timeout=TIMEOUT)
                assert np.array_equal(np.asarray(alone.output),
                                      np.asarray(routed[shard].output))

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
        # Two hosted networks: the first one's table is exported, the
        # second export fails.  Replicas are threads of this process and
        # read the table where it was built, so no file is ever made.
        nets = [build_network("PointNet++ (c)", scale=scale)
                for scale in (0.03125, 0.0625)]
        for_graph = ParameterTable.for_graph.__func__
        monkeypatch.setattr(ParameterTable, "for_graph", classmethod(
            self.fail_on_call(for_graph, 2, MemoryError("table 2"))))
        monkeypatch.setattr(tempfile, "mkstemp", self.fail_on_call(
            tempfile.mkstemp, 1, AssertionError("a table went to a file")))
        with pytest.raises(MemoryError, match="table 2"):
            ShardRouter.hosting(nets, shards=2, backend="float32")
        assert shared_table_files() == []
        assert started.servers == []  # tables are built first
        assert started.pools == []

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
