"""Sharded serving: placement planning and cache-affinity routing.

PR 6's :class:`~repro.serve.server.Server` drives a single dispatch
pipeline — one dispatcher thread, one runner per shape, one
:class:`~repro.engine.cache.NeighborIndexCache` that every worker
would have to duplicate.  This module scales that frontend out without
giving up any of its determinism guarantees:

* :func:`plan_placement` builds a :class:`PlacementPlan`: each
  (network, shape-class) replica is bin-packed into a worker slot
  against a per-worker memory budget.  A replica's working set is
  exact — the per-cloud arena plan of the program it will run, scaled
  to ``max_batch``, plus the packed parameter table — and costs no
  ``max_batch``-high forward pass.  When slots remain after every
  network is placed once, the hottest shapes replicate into them.
* :class:`ShardRouter` speaks the existing ``Server`` API (submit →
  future → :class:`~repro.serve.server.ServeResponse`) in front of one
  replica :class:`~repro.serve.server.Server` per plan entry.  Routing
  is two-level: the request's ``n_points`` picks the replica set, then
  **cache affinity** — consistent hashing on the cloud's content
  digest over a virtual-node ring — picks the replica whose partition
  of the :class:`~repro.engine.cache.PartitionedIndexCache` holds (or
  will hold) that cloud's warm neighbor indices.  Repeated clouds land
  on the same shard; the fleet builds every index once instead of once
  per worker.
* Replicas share one persistent thread
  :class:`~repro.engine.parallel.ParallelRunner` dispatch pool and one
  :class:`~repro.backend.NetworkKernelExecutor` per hosted network:
  replicas are threads of this process, so they run the *same* compiled
  program over the same :class:`~repro.backend.params.ParameterTable`
  and the same per-cloud arena plan (each built once), each out of its
  own thread's arena.

Cross-shard semantics: backpressure aggregates (a request spills along
the ring past a full replica and only raises
:class:`~repro.serve.queue.QueueFull` when *every* replica of its
shape is at capacity), shutdown drains in dependency order (replicas
first, then the shared pool, then any shared parameter files a caller
handed over), and
:meth:`ShardRouter.stats` reports per-shard queue depth and cache hit
rates next to the aggregate counters.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import threading
from dataclasses import dataclass

import numpy as np

from ..engine.cache import (
    PartitionedIndexCache,
    content_digest,
    merge_cache_stats,
)
from ..engine.parallel import ParallelRunner
from .batcher import BatchPolicy
from .queue import QueueFull, ServeError
from .server import Server

__all__ = [
    "HashRing",
    "PlacementError",
    "PlacementPlan",
    "Replica",
    "ShardRouter",
    "plan_placement",
    "replica_working_set",
]

_AFFINITIES = ("content", "random")


class PlacementError(ServeError):
    """No placement satisfies the per-worker memory budget."""


# -- working sets ------------------------------------------------------------


def replica_working_set(network, strategy="delayed", backend="float64",
                        batch=8, executor=None):
    """``(total_bytes, modules)`` one replica of ``network`` keeps resident.

    The numbers are exact plan metadata of the program the replica runs
    on ``backend``: its per-cloud arena plan scaled to a
    ``(batch, N, 3)`` stack plus the packed parameter table, with
    ``modules`` breaking the arena down into per-module peaks
    (:meth:`~repro.backend.runtime.KernelProgram.module_working_sets`).
    A program that has not run yet measures that plan on one zero
    cloud — the plan depends only on shapes.  ``executor`` is the
    :class:`~repro.backend.NetworkKernelExecutor` whose program to size
    (the fleet's shared one) instead of a private one.
    """
    if executor is None:
        from ..backend import NetworkKernelExecutor

        executor = NetworkKernelExecutor(backend)
    program = executor.program(network.network_graph(strategy), network)
    plan = program.plan_for(
        np.zeros((1, network.n_points, 3), dtype=program.backend.dtype),
        height=batch,
    )
    modules = dict(program.module_working_sets(plan))
    modules["parameters"] = int(program.table.nbytes)
    return int(plan.total_bytes) + modules["parameters"], modules


# -- placement ---------------------------------------------------------------


@dataclass(frozen=True)
class Replica:
    """One (network, shape-class) assignment to a worker slot."""

    shard: int
    slot: int
    network: str
    n_points: int
    working_set_bytes: int
    #: ``(label, bytes)`` pairs — the per-module breakdown the working
    #: set was summed from (kept picklable/JSON-friendly as a tuple).
    modules: tuple


@dataclass(frozen=True)
class PlacementPlan:
    """Replica-to-slot assignments for one router fleet."""

    slots: int
    budget_bytes: object  # int or None
    replicas: tuple
    #: The stack height (the servers' ``max_batch``) the sets are sized for.
    batch: int = 8

    def by_shape(self):
        """``n_points -> (shard ids)`` — the router's first routing level."""
        shapes = {}
        for replica in self.replicas:
            shapes.setdefault(replica.n_points, []).append(replica.shard)
        return {n: tuple(ids) for n, ids in shapes.items()}

    def slot_bytes(self):
        """Provisioned working-set bytes per slot."""
        used = [0] * self.slots
        for replica in self.replicas:
            used[replica.slot] += replica.working_set_bytes
        return used

    def describe(self):
        """Which replica went to which slot and what its working set was
        summed from (``repro serve --shards`` prints it at start-up)."""
        budget = "unbounded" if self.budget_bytes is None \
            else f"{self.budget_bytes} B"
        lines = [f"placement: {len(self.replicas)} replica(s) on "
                 f"{self.slots} slot(s), budget {budget}/slot"]
        for replica in self.replicas:
            modules = dict(replica.modules)
            table = modules["parameters"]
            lines.append(
                f"  replica {replica.shard} -> slot {replica.slot}: "
                f"{replica.network} (n={replica.n_points}), "
                f"{replica.working_set_bytes} B = "
                f"{replica.working_set_bytes - table} B arena "
                f"(per-cloud plan x {self.batch}) + {table} B table"
            )
        return "\n".join(lines)


def plan_placement(networks, slots, budget_bytes=None, hot=None,
                   strategy="delayed", backend="float64", batch=8,
                   executors=None):
    """Bin-pack (network, shape-class) replicas into ``slots`` workers.

    Two passes.  First, every network is placed exactly once, largest
    working set first, into the least-loaded slot that fits
    ``budget_bytes`` (:class:`PlacementError` when none does — an
    impossible budget must fail loudly at plan time, not OOM a worker
    at serve time).  Second, while any slot is still *empty*, the
    hottest under-replicated shape — highest ``hot`` weight divided by
    its current replica count, so heat spreads instead of one shape
    monopolizing the spare slots — replicates into it, budget
    permitting.  ``hot`` maps network names (or ``n_points`` shape
    classes, which stay unique when one architecture is hosted at two
    scales) to relative request
    weights (default: uniform).

    Replicas are numbered (their ``shard`` ids) in (slot, name) order,
    so the same inputs always produce the same plan.  ``executors``
    (``n_points`` -> :class:`~repro.backend.NetworkKernelExecutor`) are
    the ones to size instead of private ones: the fleet's own.
    """
    networks = list(networks)
    if not networks:
        raise ValueError("at least one network is required")
    if int(slots) < 1:
        raise ValueError(f"slots must be positive, got {slots}")
    slots = int(slots)
    shapes = {}
    for net in networks:
        if net.n_points in shapes:
            raise ValueError(
                f"two networks serve n_points={net.n_points}; shard "
                "routing is by cloud size, so placed networks must "
                "differ in n_points"
            )
        shapes[net.n_points] = net
    # Internal dicts key on n_points — validated unique above, unlike
    # names (the same architecture at two scales shares one name).
    # ``hot`` accepts either key kind for the same reason.
    hot = dict(hot or {})
    weights = {
        net.n_points: float(hot.get(net.n_points, hot.get(net.name, 1.0)))
        for net in networks
    }
    sizes = {
        net.n_points: replica_working_set(
            net, strategy=strategy, backend=backend, batch=batch,
            executor=(executors or {}).get(net.n_points),
        )
        for net in networks
    }

    used = [0] * slots
    hosted = [set() for _ in range(slots)]
    placed = []  # (slot, network)

    def fits(slot, n_points):
        total = sizes[n_points][0]
        if n_points in hosted[slot]:
            return False
        return budget_bytes is None or used[slot] + total <= budget_bytes

    def place(slot, net):
        used[slot] += sizes[net.n_points][0]
        hosted[slot].add(net.n_points)
        placed.append((slot, net))

    for net in sorted(networks,
                      key=lambda n: (-sizes[n.n_points][0], n.name,
                                     n.n_points)):
        candidates = [s for s in range(slots) if fits(s, net.n_points)]
        if not candidates:
            raise PlacementError(
                f"{net.name} (n={net.n_points}, {sizes[net.n_points][0]} B "
                f"working set) fits no slot under a {budget_bytes} B/slot "
                "budget"
            )
        place(min(candidates, key=lambda s: (used[s], s)), net)

    counts = {net.n_points: 1 for net in networks}
    while True:
        empty = [s for s in range(slots) if not hosted[s]]
        if not empty:
            break
        ranked = sorted(
            networks,
            key=lambda n: (-weights[n.n_points] / counts[n.n_points],
                           n.name, n.n_points),
        )
        for net in ranked:
            slot = next((s for s in empty if fits(s, net.n_points)), None)
            if slot is not None:
                place(slot, net)
                counts[net.n_points] += 1
                break
        else:
            break  # nothing fits the remaining empty slots

    replicas = tuple(
        Replica(
            shard=shard, slot=slot, network=net.name,
            n_points=net.n_points,
            working_set_bytes=int(sizes[net.n_points][0]),
            modules=tuple(sorted(sizes[net.n_points][1].items())),
        )
        for shard, (slot, net) in enumerate(
            sorted(placed,
                   key=lambda item: (item[0], item[1].name,
                                     item[1].n_points))
        )
    )
    return PlacementPlan(slots=slots, budget_bytes=budget_bytes,
                         replicas=replicas, batch=int(batch))


# -- consistent hashing ------------------------------------------------------


class HashRing:
    """Consistent-hash ring with virtual nodes (the affinity router).

    Each member lands at ``points`` pseudo-random positions on a
    64-bit ring; :meth:`order` walks clockwise from a key's position
    and yields every distinct member.  The first member is the key's
    *owner* — stable under lookups, and adding or removing one member
    only remaps the keys that hashed into its arcs, so a replica
    joining or draining does not reshuffle every cloud's cache shard.
    """

    def __init__(self, members, points=64):
        members = list(members)
        if not members:
            raise ValueError("a hash ring needs at least one member")
        if int(points) < 1:
            raise ValueError("points must be positive")
        self._members = tuple(members)
        ring = sorted(
            (self._position(f"{member}#{vnode}"), member)
            for member in members
            for vnode in range(int(points))
        )
        self._ring = ring
        self._positions = [position for position, _ in ring]

    @staticmethod
    def _position(text):
        return int(hashlib.sha1(text.encode()).hexdigest()[:16], 16)

    def order(self, key):
        """Members in ring-walk order for ``key`` (a hex digest string)."""
        start = bisect.bisect_right(self._positions, int(key[:16], 16))
        seen, ordered = set(), []
        for offset in range(len(self._ring)):
            member = self._ring[(start + offset) % len(self._ring)][1]
            if member not in seen:
                seen.add(member)
                ordered.append(member)
                if len(ordered) == len(self._members):
                    break
        return ordered

    def owner(self, key):
        """The first member on the ring at or after ``key``'s position."""
        return self.order(key)[0]


# -- the router --------------------------------------------------------------


class ShardRouter:
    """``Server``-compatible frontend over replicated shard servers.

    Build one with :meth:`hosting` (the CLI path) or hand it a list of
    replica :class:`~repro.serve.server.Server` instances whose
    ``shard`` ids match their list positions.  ``submit`` routes by
    shape class, then by cache affinity (consistent hashing on the
    cloud's content digest; ``affinity="random"`` is the control
    arm the affinity tests compare hit rates against), spilling along the
    ring under per-shard backpressure before raising an aggregated
    :class:`~repro.serve.queue.QueueFull`.
    """

    def __init__(self, servers, plan=None, cache=None, dispatch=None,
                 shared=(), affinity="content", ring_points=64, seed=0):
        servers = list(servers)
        if not servers:
            raise ValueError("at least one replica server is required")
        for index, server in enumerate(servers):
            if server.shard != index:
                raise ValueError(
                    f"replica {index} is stamped shard={server.shard}; "
                    "shard ids must match the replica list order"
                )
        if affinity not in _AFFINITIES:
            raise ValueError(
                f"unknown affinity {affinity!r}; expected {_AFFINITIES}"
            )
        self.plan = plan
        self.cache = cache
        self.affinity = affinity
        self._servers = servers
        self._dispatch = dispatch
        #: Owner-side shared-parameter handles (e.g.
        #: :class:`~repro.backend.SharedTable`), released last on close.
        self._shared = list(shared)
        self._by_shape = {}
        for index, server in enumerate(servers):
            for n in server.served_sizes:
                self._by_shape.setdefault(n, []).append(index)
        self._rings = {
            n: HashRing(ids, points=ring_points)
            for n, ids in self._by_shape.items()
        }
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._stats = {"routed": 0, "affinity_hits": 0, "spilled": 0,
                       "rejected": 0, "unroutable": 0}
        self._closed = False

    @classmethod
    def hosting(cls, networks, shards=2, strategy="delayed", scale=0.125,
                backend="float64", policy=None, cache_size=256,
                memory_budget_mb=None, hot=None, affinity="content",
                seed=0):
        """Plan, provision and start a sharded fleet (names or instances).

        ``shards`` is the worker-slot count the placement bin-packs
        into (``memory_budget_mb`` bounds each slot); one replica
        :class:`~repro.serve.server.Server` starts per plan entry.
        All replicas share one persistent thread dispatch pool (none
        when a single replica suffices — the fully serial degrade),
        and ``cache_size`` total neighbor-index entries partitioned
        across them (``0`` disables caching).  One
        :class:`~repro.backend.NetworkKernelExecutor` on ``backend`` per
        hosted network is built here: its program compiles once, the
        placement is sized from that program's per-cloud plan, and every
        replica runs it.
        """
        from ..engine.runner import BatchRunner
        from ..networks import build_network

        if isinstance(networks, str) or hasattr(networks, "n_points"):
            networks = [networks]
        policy = policy or BatchPolicy()
        # Key hosted networks by n_points (plan_placement validates
        # uniqueness): names collide when one architecture is hosted at
        # two scales.
        built = [
            build_network(network, scale=scale)
            if isinstance(network, str) else network
            for network in networks
        ]
        if memory_budget_mb is not None \
                and not 0 < memory_budget_mb < float("inf"):
            raise ValueError("memory budget must be a positive, finite "
                             f"number of MB, got {memory_budget_mb}")
        budget = None if memory_budget_mb is None \
            else int(memory_budget_mb * 2 ** 20)
        from ..backend import NetworkKernelExecutor

        # One executor per network, shared by placement and by every
        # replica: N replicas, one program, one table, one plan.
        executors = {
            net.n_points: NetworkKernelExecutor(backend) for net in built
        }
        plan = plan_placement(
            built, slots=shards, budget_bytes=budget,
            hot=hot, strategy=strategy, backend=backend,
            batch=policy.max_batch, executors=executors,
        )
        nets = {net.n_points: net for net in built}

        cache = PartitionedIndexCache(len(plan.replicas), maxsize=cache_size) \
            if cache_size else None
        dispatch = None
        servers = []
        try:
            if len(plan.replicas) > 1:
                dispatch = ParallelRunner(max_workers=len(plan.replicas))

            for replica in plan.replicas:
                net = nets[replica.n_points]
                executor = executors[replica.n_points]
                replica_runner = BatchRunner(
                    net, strategy=strategy, backend=backend,
                    cache=None if cache is None
                    else cache.shard(replica.shard),
                    executor=executor,
                    # What the runner reports as its table: the one the
                    # shared program (compiled by the placement) reads.
                    params=executor.program(
                        net.network_graph(strategy), net).table,
                )
                servers.append(Server(
                    replica_runner, policy=policy, dispatch=dispatch,
                    shard=replica.shard,
                ))
        except BaseException:
            for server in servers:
                server.close(drain=False)
            if dispatch is not None:
                dispatch.close()
            raise
        return cls(servers, plan=plan, cache=cache, dispatch=dispatch,
                   affinity=affinity, seed=seed)

    # -- admission -----------------------------------------------------------

    @property
    def served_sizes(self):
        """Cloud sizes the fleet routes, ascending."""
        return sorted(self._by_shape)

    @property
    def n_shards(self):
        return len(self._servers)

    def replica(self, shard):
        """The replica :class:`~repro.serve.server.Server` for ``shard``."""
        return self._servers[shard]

    def _candidates(self, n_points, cloud):
        if self.affinity == "content":
            return self._rings[n_points].order(content_digest(cloud))
        shards = list(self._by_shape[n_points])
        with self._lock:
            self._rng.shuffle(shards)
        return shards

    def submit(self, cloud, request_id=None, tenant="default"):
        """Admit one request; returns a future of
        :class:`~repro.serve.server.ServeResponse`.

        Routing: the cloud's ``n_points`` selects its replica set,
        then consistent hashing on the cloud's content digest orders
        that set — the first candidate owns the cloud's partition of
        the neighbor-index cache, and each further candidate is the
        backpressure spill target in ring order.  Only when *every*
        replica of the shape is at capacity does the aggregated
        :class:`~repro.serve.queue.QueueFull` surface.  Every request
        the router refuses — malformed, unroutable, non-finite, or shed
        by every replica — is counted ``rejected`` once.
        """
        try:
            return self._route(cloud, request_id, tenant)
        except Exception:
            with self._lock:
                self._stats["rejected"] += 1
            raise

    def _route(self, cloud, request_id, tenant):
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) cloud, got {cloud.shape}")
        n = int(cloud.shape[0])
        if n not in self._by_shape:
            with self._lock:
                self._stats["unroutable"] += 1
            raise ServeError(
                f"no hosted replica serves n_points={n} "
                f"(served sizes: {self.served_sizes})"
            )
        depths = []
        for position, shard in enumerate(self._candidates(n, cloud)):
            server = self._servers[shard]
            try:
                future = server.submit(cloud, request_id=request_id,
                                       tenant=tenant)
            except QueueFull:
                depths.append(f"shard {shard}: "
                              f"{server.stats()['queue_depth']} pending")
                continue
            with self._lock:
                self._stats["routed"] += 1
                if position == 0:
                    self._stats["affinity_hits"] += 1
                else:
                    self._stats["spilled"] += 1
            return future
        raise QueueFull(
            f"all {len(self._by_shape[n])} replica(s) serving "
            f"n_points={n} at capacity ({'; '.join(depths)})"
        )

    def request(self, cloud, request_id=None, tenant="default", timeout=None):
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(cloud, request_id, tenant).result(timeout)

    def stats(self):
        """Aggregate counters plus the per-shard breakdown.

        ``per_shard`` carries each replica's full
        :meth:`~repro.serve.server.Server.stats` snapshot — live queue
        depth, batch counters, and its neighbor-index cache partition's
        hit/miss/eviction stats — under its shard id; the top level
        sums the request counters, merges the cache counters, and adds
        the router's own routing stats (affinity hits vs ring spills
        vs rejections).  A replica counts ``rejected`` every try it
        refused, spills included; the top-level ``rejected`` is the
        router's own count of refused requests, so after a drain
        ``completed + failed + rejected`` is every request submitted.
        """
        with self._lock:
            routing = dict(self._stats)
        per_shard = []
        for index, server in enumerate(self._servers):
            entry = {"shard": index, "served_sizes": server.served_sizes}
            entry.update(server.stats())
            per_shard.append(entry)
        totals = {
            key: sum(entry[key] for entry in per_shard)
            for key in ("submitted", "completed", "failed", "batches",
                        "sub_batches", "batched_requests", "queue_depth")
        }
        totals["rejected"] = routing["rejected"]
        totals["mean_batch"] = (
            totals["batched_requests"] / totals["sub_batches"]
            if totals["sub_batches"] else 0.0
        )
        totals["max_depth"] = max(entry["max_depth"] for entry in per_shard)
        totals["shards"] = len(per_shard)
        totals["routing"] = routing
        totals["per_shard"] = per_shard
        caches = [entry["cache"] for entry in per_shard if "cache" in entry]
        if caches:
            totals["cache"] = merge_cache_stats(caches)
        if self._dispatch is not None:
            totals["dispatch_pending"] = self._dispatch.pending()
        return totals

    # -- shutdown ------------------------------------------------------------

    def close(self, drain=True):
        """Shut the fleet down in dependency-safe order (idempotent).

        Replicas close first (``drain=True`` fans a draining close
        across them, so every admitted request resolves; their closes
        wait out the sub-batches they submitted to the shared pool),
        *then* the shared dispatch pool — it must outlive every
        replica's in-flight work — and the shared parameter files
        unlink last.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for server in self._servers:
            server.close(drain=drain)
        if self._dispatch is not None:
            self._dispatch.close()
        for handle in self._shared:
            handle.close(unlink=True)
        self._shared = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
