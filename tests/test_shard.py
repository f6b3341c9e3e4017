"""Sharded serving: placement, affinity routing, partitioned cache.

The contracts CI pins down: placement numbers a bounded fleet
round-robin over the hosted networks, a cloud's owner is its content
digest modulo the replica count so the same cloud lands on the same
shard and the partitioned neighbor-index cache warms once per fleet,
backpressure spills from the owner onward and aggregates across
replicas before a request is rejected, responses stay bit-exact
against each cloud served alone by a direct BatchRunner across every
strategy and kernel backend, and shutdown — draining or not, even
mid-spill — resolves every request id exactly once.
"""

import glob
import os
import random
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
from repro.backend import ParameterTable
from repro.backend.aot import _share_dir
from repro.cli import _print_serve_stats
from repro.engine import BatchRunner
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
    QueueFull,
    ServeError,
    Server,
    ServerClosed,
    ShardRouter,
    plan_placement,
)
from repro.serve.shard import MAX_SLOTS

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
    policy = policy or BatchPolicy(max_batch=4, max_queue=max_queue)
    servers = [
        Server(StubRunner(n_points=n_points, block=block), policy=policy,
               shard=shard)
        for shard in range(n_shards)
    ]
    return ShardRouter(servers, **kwargs)


@pytest.fixture
def spies(monkeypatch):
    """Counts of what starting a kernel-backend fleet may do only once."""
    counts = {"exports": 0, "compiles": 0, "shares": 0}

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
    monkeypatch.setattr(repro.backend.aot, "share_table",
                        counted("shares", repro.backend.aot.share_table))
    return counts


def owned_cloud(router, shard, n_points=8):
    """A stub cloud whose owner (first routing candidate) is ``shard``."""
    for value in range(256):
        cloud = stub_cloud(n_points, value=float(value))
        if router._candidates(n_points, cloud)[0] == shard:
            return cloud
    raise AssertionError(f"no stub cloud is owned by shard {shard}")


# -------------------------------------------------------------- placement


class TestPlacement:
    @pytest.mark.parametrize("slots", [1, 2, 3, 4])
    def test_one_network_fills_every_slot(self, tiny_net, slots):
        plan = plan_placement([tiny_net], slots=slots)
        assert [(r.shard, r.network, r.n_points) for r in plan.replicas] \
            == [(i, tiny_net.name, tiny_net.n_points) for i in range(slots)]

    @pytest.mark.parametrize("slots, hosted", [
        # Every network is hosted even on fewer slots, and spare slots
        # repeat the list in the order given.
        (1, (0, 1)), (2, (0, 1)), (3, (0, 1, 0)),
    ])
    def test_networks_are_hosted_round_robin(self, tiny_net, slots, hosted):
        networks = [tiny_net, build_network("PointNet++ (c)", scale=0.0625)]
        plan = plan_placement(networks, slots=slots)
        assert [(r.shard, r.n_points) for r in plan.replicas] \
            == [(i, networks[k].n_points) for i, k in enumerate(hosted)]

    @pytest.mark.parametrize("slots", [1, MAX_SLOTS])
    def test_slots_up_to_the_ceiling_are_planned(self, tiny_net, slots):
        # A plan is a rule: even the ceiling starts and compiles nothing.
        plan = plan_placement([tiny_net], slots=slots)
        assert [r.shard for r in plan.replicas] == list(range(slots))

    @pytest.mark.parametrize("slots, reason", [
        (0, "slots must be positive, got 0"),
        (-2, "slots must be positive, got -2"),
        (MAX_SLOTS + 1, f"slots must be at most {MAX_SLOTS}, "
                        f"got {MAX_SLOTS + 1}"),
    ])
    def test_slots_out_of_bounds_are_refused(self, tiny_net, slots, reason):
        with pytest.raises(ValueError, match=reason):
            plan_placement([tiny_net], slots=slots)

    def test_duplicate_n_points_rejected(self, tiny_net):
        with pytest.raises(ValueError, match="n_points"):
            plan_placement([tiny_net, tiny_net], slots=2)

    def test_describe_names_every_replica(self, tiny_net):
        plan = plan_placement([tiny_net], slots=2)
        assert plan.describe().splitlines() == [
            "placement: 2 replica(s)",
            f"  replica 0: {tiny_net.name} (n={tiny_net.n_points})",
            f"  replica 1: {tiny_net.name} (n={tiny_net.n_points})",
        ]


# --------------------------------------------------------------- affinity


class TestAffinityRule:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_owner_is_the_digest_modulo_the_replica_count(self, n_shards):
        # The owner comes first; spills walk on from it, wrapping round.
        router = stub_router(n_shards=n_shards)
        with router:
            for value in range(12):
                cloud = stub_cloud(value=float(value))
                owner = int(content_digest(cloud)[:16], 16) % n_shards
                assert router._candidates(8, cloud) \
                    == [(owner + k) % n_shards for k in range(n_shards)]
                assert router.request(cloud, timeout=TIMEOUT).shard == owner


# -------------------------------------------------------- partitioned cache


class TestPartitionedCache:
    def test_budget_splits_across_shards(self):
        cache = PartitionedIndexCache(4, maxsize=32)
        assert cache.n_shards == 4
        assert all(cache.shard(i).maxsize == 8 for i in range(4))
        # The size is a total: it cannot give each partition one entry.
        with pytest.raises(ValueError, match="cache size 4 is smaller "
                                             "than the 8 shards"):
            PartitionedIndexCache(8, maxsize=4)

    @pytest.mark.parametrize("shards, maxsize", [
        (1, 1), (2, 2), (3, 10), (4, 256),
    ])
    def test_partitions_never_hold_more_than_the_total(self, shards,
                                                       maxsize):
        cache = PartitionedIndexCache(shards, maxsize=maxsize)
        sizes = [cache.shard(i).maxsize for i in range(shards)]
        assert all(size >= 1 for size in sizes)
        assert sum(sizes) <= maxsize

    @pytest.mark.parametrize("shards, maxsize", [(2, 1), (4, 3), (64, 63)])
    def test_a_total_below_the_shard_count_is_refused(self, shards,
                                                      maxsize):
        with pytest.raises(ValueError, match=f"cache size {maxsize} is "
                                             f"smaller than the {shards} "
                                             "shards"):
            PartitionedIndexCache(shards, maxsize=maxsize)

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
        policy = BatchPolicy(max_batch=2)
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
        assert owners == {0, 1}  # affinity uses the whole fleet

    def test_backpressure_spills_then_aggregates(self):
        gate = threading.Event()
        policy = BatchPolicy(max_batch=1, max_queue=2)
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

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_each_request_is_counted_once(self, n_shards, capsys):
        # One replica queue slot and one lane each: most of 200 submits
        # are shed, some only after spilling past a full replica.  After
        # the drain every request is completed, failed or rejected once.
        gate = threading.Event()
        policy = BatchPolicy(max_batch=1, max_queue=1)
        router = stub_router(n_shards=n_shards, block=gate, policy=policy)
        front = router if n_shards > 1 else router.replica(0)
        refused = 0
        try:
            for value in range(200):
                try:
                    front.submit(stub_cloud(value=float(value % 2)))
                except QueueFull:
                    refused += 1
            for cloud in (stub_cloud(5), np.zeros((8, 2)), "abc",
                          stub_cloud(value=np.nan)):
                with pytest.raises((ServeError, ValueError)):
                    front.submit(cloud)
            # Refused at admission, before any replica queue is tried.
            with pytest.raises(ValueError, match="neighbor search admits"):
                front.submit(stub_cloud(value=1e200))
        finally:
            gate.set()
            router.close()
        stats = front.stats()
        assert refused >= 190
        assert stats["rejected"] == refused + 5
        assert stats["completed"] == 200 - refused
        assert stats["completed"] + stats["failed"] + stats["rejected"] \
            == 205
        if n_shards > 1:
            assert stats["routing"]["rejected"] == stats["rejected"]
            assert stats["routing"]["unroutable"] == 1
        _print_serve_stats(stats)
        assert f"rejected {refused + 5}, failed 0)" in capsys.readouterr().err

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

    def test_a_replica_never_has_two_batches_in_flight(self):
        # One lane per replica: each replica runs one batch at a time,
        # and two replicas still run side by side.
        barrier = threading.Barrier(2, timeout=TIMEOUT)
        lock = threading.Lock()
        active, peak = [0, 0], [0, 0]
        counts = {"active": 0, "peak": 0}

        class CountingRunner(StubRunner):
            """Counts calls in flight per replica and across both;
            every call waits at a 2-party barrier, so two must run side
            by side."""

            def __init__(self, shard):
                super().__init__()
                self.shard = shard

            def run(self, stack):
                with lock:
                    active[self.shard] += 1
                    peak[self.shard] = max(peak[self.shard],
                                           active[self.shard])
                    counts["active"] += 1
                    counts["peak"] = max(counts["peak"], counts["active"])
                try:
                    barrier.wait()
                    return super().run(stack)
                finally:
                    with lock:
                        active[self.shard] -= 1
                        counts["active"] -= 1

        policy = BatchPolicy(max_batch=1)
        servers = [Server(CountingRunner(shard), policy=policy, shard=shard)
                   for shard in range(2)]
        with ShardRouter(servers) as router:
            clouds = [owned_cloud(router, shard) for shard in (0, 1)]
            futures = [router.submit(clouds[i % 2]) for i in range(8)]
            shards = [f.result(TIMEOUT).shard for f in futures]
        assert shards == [0, 1] * 4  # both replicas dispatched
        assert peak == [1, 1]
        assert counts["peak"] == 2

    def test_close_leaves_no_lane_alive(self):
        def lanes():
            return [thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-serve-dispatch")]

        before = lanes()
        router = stub_router(n_shards=2)
        assert len(set(lanes()) - set(before)) == 2  # one lane per replica
        futures = [router.submit(stub_cloud(value=float(i)))
                   for i in range(6)]
        router.close()
        assert all(f.result(TIMEOUT) for f in futures)
        assert set(lanes()) <= set(before)

    def test_fair_queue_round_robin_survives_router_fan_out(self):
        # Satellite contract: fanning tenants out across shards keeps
        # each shard's FairQueue round-robin intact — a loud tenant
        # cannot starve a quiet one anywhere in the fleet — and the
        # aggregated backpressure path never deadlocks the submitters.
        gate = threading.Event()
        policy = BatchPolicy(max_batch=2, max_queue=64)
        router = stub_router(n_shards=2, block=gate, policy=policy)
        try:
            # Find one cloud owned by each shard, then park both
            # dispatchers inside their runners.
            owned = {shard: owned_cloud(router, shard) for shard in (0, 1)}
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

    def test_close_mid_spill_resolves_every_id_once(self):
        # Replica 0 is gated full, so its clouds spill to replica 1; a
        # non-draining close lands while submitters keep going.
        gate = threading.Event()
        threads_before = set(threading.enumerate())
        policy = BatchPolicy(max_batch=1, max_queue=2)
        servers = [
            Server(StubRunner(block=gate if shard == 0 else None),
                   policy=policy, shard=shard)
            for shard in range(2)
        ]
        router = ShardRouter(servers)
        cloud = owned_cloud(router, 0)
        lock = threading.Lock()
        outcomes = {}  # request id -> its future, or its submit error
        closed = threading.Event()

        def submitter(name):
            for i in range(100_000):
                last = closed.is_set()
                rid = f"{name}-{i}"
                try:
                    outcome = router.submit(cloud, request_id=rid)
                except (QueueFull, ServerClosed) as exc:
                    outcome = exc
                with lock:
                    outcomes[rid] = outcome
                if last:
                    return  # one submit after the close returned
                time.sleep(0.001)

        def closer():
            router.close(drain=False)
            closed.set()

        submitters = [threading.Thread(target=submitter, args=(f"s{k}",))
                      for k in range(3)]
        closing = threading.Thread(target=closer)
        try:
            for thread in submitters:
                thread.start()
            deadline = time.time() + TIMEOUT
            while router.stats()["routing"]["spilled"] < 3 \
                    and time.time() < deadline:
                time.sleep(0.002)
            assert router.stats()["routing"]["spilled"] >= 3
            closing.start()
            # The close fails what replica 0 queued, then waits for its
            # gated in-flight batch: open the gate once it is closing.
            while not router.replica(0)._closed and time.time() < deadline:
                time.sleep(0.002)
        finally:
            gate.set()
            if closing.ident is None:  # failed before the close began
                closer()
            else:
                closing.join(TIMEOUT)
            for thread in submitters:
                thread.join(TIMEOUT)
        served = dropped = refused = 0
        for rid, outcome in outcomes.items():
            if isinstance(outcome, Exception):
                refused += 1
                continue
            error = outcome.exception(TIMEOUT)
            if error is None:
                assert outcome.result().request_id == rid
                served += 1
            else:
                assert isinstance(error, ServerClosed), error
                dropped += 1
        assert served and dropped and refused
        # Every submitter's last submit came after the close returned.
        last = [max((rid for rid in outcomes if rid.startswith(f"s{k}-")),
                    key=lambda rid: int(rid.split("-")[1]))
                for k in range(3)]
        assert all(isinstance(outcomes[rid], ServerClosed) for rid in last)
        router.close()  # idempotent
        assert [thread for thread in threading.enumerate()
                if thread not in threads_before] == []


# ----------------------------------------------- end-to-end bit-exactness


class TestShardExactness:
    @pytest.mark.parametrize("strategy", ["original", "delayed", "limited"])
    def test_bit_exact_vs_direct_replay_per_strategy(self, tiny_net,
                                                     tiny_clouds, strategy):
        self._assert_exact(tiny_net, tiny_clouds, strategy, None)

    @pytest.mark.parametrize("backend", [None, "float64", "float32"])
    def test_bit_exact_vs_direct_replay_per_backend(self, tiny_net,
                                                    tiny_clouds, backend):
        self._assert_exact(tiny_net, tiny_clouds, "delayed", backend)

    @staticmethod
    def _assert_exact(net, clouds, strategy, backend):
        policy = BatchPolicy(max_batch=4, max_queue=256)
        direct = BatchRunner(net, strategy=strategy, backend=backend)
        alone = [direct.run(cloud[None]).per_cloud()[0] for cloud in clouds]
        router = ShardRouter.hosting(
            net, shards=2, strategy=strategy, backend=backend,
            policy=policy, cache_size=64,
        )
        with router:
            futures = {
                f"x{i}": router.submit(clouds[i % len(clouds)],
                                       request_id=f"x{i}")
                for i in range(12)
            }
            responses = {rid: f.result(TIMEOUT)
                         for rid, f in futures.items()}
            stats = router.stats()
        # Every ID answered once, by its own response; nothing shed.
        assert [resp.request_id for resp in responses.values()] \
            == list(futures)
        assert (stats["completed"], stats["rejected"]) == (12, 0)
        for rid, resp in responses.items():
            # Whatever sub-batch it rode, a response is its cloud alone.
            assert np.array_equal(np.asarray(resp.output),
                                  alone[int(rid[1:]) % len(clouds)])

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_first_request_runs_out_of_the_compiled_plan_on_every_network(
            self, name):
        # Start-up runs no cloud and plans no height: the fleet's first
        # request runs out of the shared program's compiled plan, with
        # no request the plan missed, and both replicas answer what the
        # network answers alone.
        net = build_network(name, scale=0.03125 if "(s)" in name else 0.0625,
                            rng=np.random.default_rng(17))
        rng = np.random.default_rng(23)
        with ShardRouter.hosting([net], shards=2, backend="float32") as router:
            [program] = {router.replica(shard)._routes[net.n_points]._program
                         for shard in range(router.n_shards)}
            assert program.memory_stats()["heights"] == (), name
            clouds = {}
            while len(clouds) < 2:  # one cloud owned by each replica
                cloud = rng.normal(size=(net.n_points, 3))
                clouds.setdefault(router._candidates(net.n_points, cloud)[0],
                                  cloud)
            routed = {shard: router.request(cloud, timeout=TIMEOUT)
                      for shard, cloud in clouds.items()}
        assert program.memory_stats()["unplanned"] == 0, name
        direct = BatchRunner(net, strategy="delayed", backend="float32")
        for shard, cloud in clouds.items():
            assert routed[shard].shard == shard
            served = routed[shard].output
            alone = direct.run(cloud[None]).per_cloud()[0]
            if not isinstance(alone, dict):  # one head, or several
                served, alone = {"": served}, {"": alone}
            assert served.keys() == alone.keys(), (name, shard)
            for head, value in alone.items():
                assert np.array_equal(served[head], value), (name, shard)

    def test_fleet_shares_one_program_table_and_plan(self, spies):
        # Counted, not timed: starting two replicas of one network and
        # serving on both costs what starting one server costs.
        net = build_network("PointNet++ (c)", scale=0.03125,
                            rng=np.random.default_rng(41))
        rng = np.random.default_rng(5)
        with ShardRouter.hosting([net], shards=2, backend="float32") as router:
            assert router.n_shards == 2
            clouds = {}
            while len(clouds) < 2:  # one cloud owned by each replica
                cloud = rng.normal(size=(net.n_points, 3))
                clouds.setdefault(router._candidates(net.n_points, cloud)[0],
                                  cloud)
            routed = {shard: router.request(cloud, timeout=TIMEOUT)
                      for shard, cloud in clouds.items()}
        assert {shard: resp.shard for shard, resp in routed.items()} \
            == {0: 0, 1: 1}
        assert spies == {"exports": 1, "compiles": 1, "shares": 0}
        with Server.hosting([net], backend="float32") as server:
            for shard, cloud in clouds.items():
                alone = server.request(cloud, timeout=TIMEOUT)
                assert np.array_equal(np.asarray(alone.output),
                                      np.asarray(routed[shard].output))

    def test_affinity_beats_random_on_repeated_clouds(self, tiny_net):
        rng = np.random.default_rng(9)
        clouds = [rng.normal(size=(tiny_net.n_points, 3)) for _ in range(4)]
        sequence = [i % len(clouds) for i in range(24)]
        policy = BatchPolicy(max_batch=4, max_queue=256)

        class ShuffledRouter(ShardRouter):
            """The control arm: every request tries the replicas in a
            seeded random order, whatever the cloud."""

            shuffle = random.Random(13).shuffle

            def _candidates(self, n_points, cloud):
                shards = list(self._by_shape[n_points])
                self.shuffle(shards)
                return shards

        def hit_rate(router_class):
            router = router_class.hosting(
                tiny_net, shards=2, backend="float32", policy=policy,
                cache_size=64,
            )
            with router:
                for i, index in enumerate(sequence):
                    router.request(clouds[index], request_id=f"h{i}",
                                   timeout=TIMEOUT)
            return router.stats()["cache"]["hit_rate"]

        assert hit_rate(ShardRouter) > hit_rate(ShuffledRouter)


    def test_fresh_fleets_fed_one_sequence_count_the_same(self, tiny_net):
        # One lane per replica: a replica runs its batches in the order
        # it took them, so its cache partition sees one sequence of
        # lookups, and its counters are the same on every run.  Batches
        # of one make batch formation repeat too (a stack's lookups go
        # search node by search node).  The cache is small enough to
        # evict, so the order shows.
        rng = np.random.default_rng(21)
        clouds = [rng.normal(size=(tiny_net.n_points, 3)) for _ in range(6)]
        sequence = [int(i) for i in rng.integers(0, len(clouds), size=30)]
        policy = BatchPolicy(max_batch=1, max_queue=256)
        readings = []
        for _ in range(5):
            router = ShardRouter.hosting(
                tiny_net, shards=2, backend="float32", policy=policy,
                cache_size=12,
            )
            with router:
                assert [router.replica(k).workers for k in range(2)] \
                    == [1, 1]
                futures = [router.submit(clouds[index], request_id=f"c{i}")
                           for i, index in enumerate(sequence)]
                for future in futures:
                    future.result(TIMEOUT)
            stats = router.stats()
            readings.append([entry["cache"] for entry in stats["per_shard"]])
        assert readings == [readings[0]] * 5
        total = merge_cache_stats(readings[0])
        assert total["hits"] > 0 and total["evictions"] > 0


# ------------------------------------------------- partial start-up failure


def shared_table_files():
    """The parameter tables this process has published and not removed."""
    return glob.glob(os.path.join(_share_dir(),
                                  f"repro-params-{os.getpid()}-*"))


class TestHostingFailure:
    """``ShardRouter.hosting`` fails whole: nothing it started survives."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Every Server ``hosting`` constructs."""
        started = SimpleNamespace(servers=[])

        class RecordingServer(Server):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.servers.append(self)

        monkeypatch.setattr(repro.serve.shard, "Server", RecordingServer)
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

    def test_too_many_shards_start_nothing(self, started, tiny_net):
        # The ceiling is checked before any thread starts.
        with pytest.raises(ValueError, match="slots must be at most 64"):
            ShardRouter.hosting(tiny_net, shards=65, backend="float32")
        assert started.servers == []

    def test_failed_replica_closes_its_started_siblings(self, monkeypatch,
                                                        started, tiny_net):
        monkeypatch.setattr(repro.engine.runner, "BatchRunner",
                            self.fail_on_call(BatchRunner, 2,
                                              RuntimeError("replica 1 died")))
        with pytest.raises(RuntimeError, match="replica 1 died"):
            ShardRouter.hosting(tiny_net, shards=2, backend="float32")
        assert len(started.servers) == 1
        assert started.servers[0]._closed
        assert not any(thread.is_alive()
                       for thread in started.servers[0]._threads)
        assert shared_table_files() == []
