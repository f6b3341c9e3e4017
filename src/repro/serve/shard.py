"""Sharded serving: a fixed replica fleet and cache-affinity routing.

:class:`~repro.serve.server.Server` drives a single dispatch pipeline —
its lanes (dispatcher threads), one runner per shape, one
:class:`~repro.engine.cache.NeighborIndexCache`.  This module fronts N
one-lane replicas of it without giving up any of its determinism
guarantees:

* :func:`plan_placement` numbers the replicas: ``max(slots,
  len(networks))`` of them, replica ``i`` hosting ``networks[i %
  len(networks)]``.  Replicas are threads of this process, so they run
  the *same* compiled program over the same
  :class:`~repro.backend.params.ParameterTable` and the same per-cloud
  arena plan (each built once, by the one
  :class:`~repro.backend.KernelProgram` compiled per hosted network),
  each out of its own thread's arena: there is no per-replica memory
  to budget or to size.
* :class:`ShardRouter` speaks the existing ``Server`` API (submit →
  future → :class:`~repro.serve.server.ServeResponse`) in front of the
  replica :class:`~repro.serve.server.Server` fleet.  Routing is
  two-level: the request's ``n_points`` picks the replica set, then
  **cache affinity** — the cloud's content digest modulo the size of
  that set — picks the owner whose partition of the
  :class:`~repro.engine.cache.PartitionedIndexCache` holds (or will
  hold) that cloud's warm neighbor indices.  Repeated clouds land on
  the same shard; the fleet builds every index once instead of once
  per replica.  The fleet never changes size while it serves, so a
  consistent-hash ring would buy nothing over the modulo.

Cross-shard semantics: backpressure aggregates (a request spills past
a full owner to the next replica of its set, in list order from the
owner, and only raises :class:`~repro.serve.queue.QueueFull` when
*every* replica of its shape is at capacity), shutdown drains in
dependency order (replicas first, then any shared parameter files a
caller handed over), and
:meth:`ShardRouter.stats` reports per-shard queue depth and cache hit
rates next to the aggregate counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..engine.cache import (
    PartitionedIndexCache,
    content_digest,
    merge_cache_stats,
)
from .batcher import BatchPolicy
from .queue import QueueFull, ServeError
from .server import MAX_SLOTS, Server

__all__ = ["PlacementPlan", "Replica", "ShardRouter", "plan_placement"]


# -- placement ---------------------------------------------------------------


@dataclass(frozen=True)
class Replica:
    """One replica of the fleet and the network it hosts."""

    shard: int
    network: str
    n_points: int


@dataclass(frozen=True)
class PlacementPlan:
    """The replicas of one router fleet, in shard-id order."""

    replicas: tuple

    def describe(self):
        """One line per replica (``repro serve --shards`` prints it at
        start-up)."""
        lines = [f"placement: {len(self.replicas)} replica(s)"]
        lines += [f"  replica {replica.shard}: {replica.network} "
                  f"(n={replica.n_points})" for replica in self.replicas]
        return "\n".join(lines)


def plan_placement(networks, slots, backend=None, batch=None):
    """Number the replicas of a fleet of ``slots`` over ``networks``.

    There are ``max(slots, len(networks))`` replicas, and replica ``i``
    hosts ``networks[i % len(networks)]``, in the order given: every
    network is hosted at least once and the replicas spread round-robin.
    Shard routing is by cloud size, so placed networks must differ in
    ``n_points``.  ``backend`` and ``batch`` are read by nothing; they
    are accepted only because ``benchmarks/ledger/layers.py`` — which a
    non-benchmark change may not edit — still passes them, and they go
    with ROADMAP item 11(f).
    """
    networks = list(networks)
    if not networks:
        raise ValueError("at least one network is required")
    if int(slots) < 1:
        raise ValueError(f"slots must be positive, got {slots}")
    if int(slots) > MAX_SLOTS:
        raise ValueError(f"slots must be at most {MAX_SLOTS}, got {slots}")
    shapes = set()
    for net in networks:
        if net.n_points in shapes:
            raise ValueError(
                f"two networks serve n_points={net.n_points}; shard "
                "routing is by cloud size, so placed networks must "
                "differ in n_points"
            )
        shapes.add(net.n_points)
    count = max(int(slots), len(networks))
    hosted = (networks[i % len(networks)] for i in range(count))
    return PlacementPlan(replicas=tuple(
        Replica(shard=shard, network=net.name, n_points=net.n_points)
        for shard, net in enumerate(hosted)
    ))


# -- the router --------------------------------------------------------------


class ShardRouter:
    """``Server``-compatible frontend over replicated shard servers.

    Build one with :meth:`hosting` (the CLI path) or hand it a list of
    replica :class:`~repro.serve.server.Server` instances whose
    ``shard`` ids match their list positions.  ``submit`` routes by
    shape class, then by cache affinity (the cloud's content digest
    picks its owner), spilling past full replicas under per-shard
    backpressure before raising an aggregated
    :class:`~repro.serve.queue.QueueFull`.  ``dispatch`` is read by
    nothing; it is accepted only because ``benchmarks/ledger/layers.py``
    still passes it, and it goes with ROADMAP item 10.
    """

    def __init__(self, servers, plan=None, cache=None, dispatch=None,
                 shared=()):
        servers = list(servers)
        if not servers:
            raise ValueError("at least one replica server is required")
        for index, server in enumerate(servers):
            if server.shard != index:
                raise ValueError(
                    f"replica {index} is stamped shard={server.shard}; "
                    "shard ids must match the replica list order"
                )
        self.plan = plan
        self.cache = cache
        self._servers = servers
        #: Owner-side shared-parameter handles (e.g.
        #: :class:`~repro.backend.SharedTable`), released last on close.
        self._shared = list(shared)
        self._by_shape = {}
        for index, server in enumerate(servers):
            for n in server.served_sizes:
                self._by_shape.setdefault(n, []).append(index)
        self._lock = threading.Lock()
        self._stats = {"routed": 0, "affinity_hits": 0, "spilled": 0,
                       "rejected": 0, "unroutable": 0}
        self._closed = False

    @classmethod
    def hosting(cls, networks, shards=2, strategy="delayed", scale=0.125,
                backend="float64", policy=None, cache_size=256):
        """Plan, provision and start a sharded fleet (names or instances).

        One replica :class:`~repro.serve.server.Server` starts per plan
        entry (:func:`plan_placement`: ``max(shards, len(networks))``),
        each with one lane: a replica runs one batch at a time, in the
        order its queue hands them out, so no two of its batches
        interleave on its cache partition.  The replicas share
        ``cache_size`` total neighbor-index entries partitioned across
        them (``0`` disables caching).  One
        :class:`~repro.backend.KernelProgram` in ``backend`` per hosted
        network is compiled here, before any replica starts; every
        replica runs that program, out of the arena plan it compiled
        with.
        """
        from ..backend import compile_kernel_program
        from ..engine.runner import BatchRunner
        from ..networks import build_network

        if isinstance(networks, str) or hasattr(networks, "n_points"):
            networks = [networks]
        policy = policy or BatchPolicy()
        built = [
            build_network(network, scale=scale)
            if isinstance(network, str) else network
            for network in networks
        ]
        plan = plan_placement(built, slots=shards)
        cache = PartitionedIndexCache(len(plan.replicas), maxsize=cache_size) \
            if cache_size else None
        # Key hosted networks by n_points (plan_placement validates
        # uniqueness): names collide when one architecture is hosted at
        # two scales.  One program per network, compiled here, before
        # any thread starts: N replicas, one program, one table, one plan.
        nets = {net.n_points: net for net in built}
        programs = {n: compile_kernel_program(net, strategy, backend)
                    for n, net in nets.items()}
        servers = []
        try:
            for replica in plan.replicas:
                program = programs[replica.n_points]
                replica_runner = BatchRunner(
                    nets[replica.n_points], strategy=strategy,
                    backend=backend,
                    cache=None if cache is None
                    else cache.shard(replica.shard),
                    program=program,
                    # What the runner reports as its table: the one the
                    # shared program reads.
                    params=program.table,
                )
                servers.append(Server(replica_runner, policy=policy,
                                      shard=replica.shard))
        except BaseException:
            for server in servers:
                server.close(drain=False)
            raise
        return cls(servers, plan=plan, cache=cache)

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
        """The replicas of ``n_points`` in the order ``cloud`` tries
        them: its owner (the content digest modulo their count) first,
        then the rest of the list from there on, wrapping round."""
        shards = self._by_shape[n_points]
        owner = int(content_digest(cloud)[:16], 16) % len(shards)
        return shards[owner:] + shards[:owner]

    def submit(self, cloud, request_id=None, tenant="default"):
        """Admit one request; returns a future of
        :class:`~repro.serve.server.ServeResponse`.

        Routing: the cloud's ``n_points`` selects its replica set,
        then the cloud's content digest orders that set
        (:meth:`_candidates`) — the first candidate owns the cloud's
        partition of the neighbor-index cache, and each further
        candidate is the next backpressure spill target.  Only when
        *every* replica of the shape is at capacity does the aggregated
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
        the router's own routing stats (affinity hits vs spills vs
        rejections).  A replica counts ``rejected`` every try it
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
        return totals

    # -- shutdown ------------------------------------------------------------

    def close(self, drain=True):
        """Shut the fleet down in dependency-safe order (idempotent).

        Replicas close first (``drain=True`` fans a draining close
        across them, so every admitted request resolves; each close
        joins that replica's lane), and the shared parameter files
        unlink last, once nothing can read them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for server in self._servers:
            server.close(drain=drain)
        for handle in self._shared:
            handle.close(unlink=True)
        self._shared = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
