"""LRU neighbor-index cache: skip searches the engine has already done.

Neighbor search is the serving bottleneck the paper attacks; in a
serving workload the same cloud often comes back (retries, multi-model
ensembles, per-frame re-ranking), and its neighbor tables are identical
every time.  The cache keys on *content* — a digest of the cloud and
query arrays plus (k, dtype) — so any repeated query skips the search
entirely, no matter which code path issues it.

Hand an instance to a :class:`repro.engine.BatchRunner` (or to
:meth:`repro.backend.KernelProgram.run` as ``cache=``) and every search
of those runs consults it.  A stack resolves one cloud at a time, in
stack order, through the lookup a single cloud takes: a cloud already
in the table (a repeat earlier in the same stack included) is a hit,
and a miss searches that cloud alone — the call the brute-force kernel
makes for each cloud of a stack anyway, so the bits are the same.

The cache is thread-safe, and every lookup is *single-flight*: when
several identical searches are in flight concurrently (the same cloud
pipelined on different workers), exactly one thread computes while the
rest wait and then hit — concurrent duplicates never duplicate the
index build.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..neighbors import knn_brute_force

__all__ = [
    "NeighborIndexCache",
    "PartitionedIndexCache",
    "content_digest",
    "merge_cache_stats",
]


def content_digest(array):
    """SHA-1 digest of an array's dtype, shape and raw bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha1()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.data if array.size else b"")
    return digest.hexdigest()


class NeighborIndexCache:
    """Bounded LRU cache of neighbor-search results.

    Entries are KNN ``(indices, distances)`` pairs.  Returned arrays are
    the cached objects themselves — treat them as read-only.
    """

    def __init__(self, maxsize=256):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries = OrderedDict()
        self._lock = threading.RLock()
        # Single-flight bookkeeping: key -> Event set once the owning
        # thread has installed (or abandoned) the entry.
        self._pending = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def clear(self):
        """Drop every entry (in-flight computations still complete)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self):
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self):
        """Hits / misses / evictions / size counters, as a dict."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _key(points, queries, k, dtype, tag=None):
        # A graph search-node signature replaces the query digest: the
        # queries are that node's deterministic centroid draw over the
        # points, so (points digest, tag) already identifies them and
        # hashing the derived array again would be pure overhead.
        query_id = ("tag", tag) if tag is not None else content_digest(queries)
        return (
            content_digest(points),
            query_id,
            int(k),
            np.dtype(dtype).name if dtype is not None else "float64",
        )

    def _put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def _claim(self, key):
        """One single-flight step for ``key``; call with the lock held.

        Returns ``(entry, None)`` on a hit, ``(None, event)`` when
        another thread is computing the key (wait on the event, then
        claim again), and ``(None, None)`` when the caller now owns the
        computation — counted as the miss — and must :meth:`_release`
        the key once it has installed (or abandoned) the entry.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, None
        waiter = self._pending.get(key)
        if waiter is None:
            self._pending[key] = threading.Event()
            self.misses += 1
        return None, waiter

    def _release(self, key):
        """Give up the claim on ``key`` and wake its waiters."""
        with self._lock:
            event = self._pending.pop(key)
        event.set()

    def _single(self, key, compute):
        """Single-flight lookup: concurrent duplicates compute once.

        The first thread to miss becomes the owner and computes; every
        other thread arriving with the same key waits on the owner's
        event and then hits the installed entry.  If the owner's
        compute raises, its waiters retry and one of them takes over.
        """
        while True:
            with self._lock:
                entry, waiter = self._claim(key)
            if entry is not None:
                return entry
            if waiter is None:
                break
            waiter.wait()
        try:
            return self._put(key, compute())
        finally:
            self._release(key)

    # -- lookups ------------------------------------------------------------

    def knn(self, points, queries, k, dtype=None, tag=None):
        """Cached KNN; same shapes and semantics as :func:`knn_brute_force`.

        ``tag`` is an optional graph search-node signature (see
        :func:`repro.graph.network._search_signature`); when given, the
        query array is not digested for the key.  A ``(B, N, D)`` stack
        is looked up one cloud at a time and the results stacked.
        """
        points = np.asarray(points)
        queries = np.asarray(queries)
        if points.ndim == 3:
            found = [self.knn(p, q, k, dtype=dtype, tag=tag)
                     for p, q in zip(points, queries)]
            return (np.stack([indices for indices, _ in found]),
                    np.stack([distances for _, distances in found]))
        key = self._key(points, queries, k, dtype, tag=tag)
        return self._single(
            key, lambda: knn_brute_force(points, queries, k, dtype=dtype))


def merge_cache_stats(stats_iter):
    """Sum per-cache :meth:`NeighborIndexCache.stats` dicts into one.

    Counter fields add; ``hit_rate`` is recomputed from the summed
    hits/misses (a mean of per-cache rates would weight an idle cache
    the same as a busy one).
    """
    merged = {"size": 0, "maxsize": 0, "hits": 0, "misses": 0,
              "evictions": 0}
    for stats in stats_iter:
        for key in merged:
            merged[key] += stats[key]
    total = merged["hits"] + merged["misses"]
    merged["hit_rate"] = merged["hits"] / total if total else 0.0
    return merged


class PartitionedIndexCache:
    """A :class:`NeighborIndexCache` split into per-shard partitions.

    Replicated servers used to mean duplicated caches: every worker
    re-built (and separately evicted) the same neighbor indices.  This
    wrapper instead divides one cache budget into ``shards`` disjoint
    LRUs — the shard router's affinity routing keeps each cloud's
    lookups on one shard, so across the fleet every index is built and
    stored once, and the aggregate capacity covers ``shards`` times as
    many distinct clouds as any single replica could hold.

    :meth:`shard` hands partition ``i`` to replica ``i``'s runner;
    :meth:`stats` reports both the aggregate counters and the
    per-shard breakdown the shard-aware server stats surface.
    """

    def __init__(self, shards, maxsize=256):
        shards = int(shards)
        if shards <= 0:
            raise ValueError("shards must be positive")
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if maxsize < shards:
            raise ValueError(
                f"cache size {maxsize} is smaller than the {shards} shards "
                "it is split across (each needs at least one entry; 0 "
                "disables caching)")
        self.maxsize = int(maxsize)
        self._shards = tuple(
            NeighborIndexCache(self.maxsize // shards) for _ in range(shards)
        )

    @property
    def n_shards(self):
        return len(self._shards)

    def __len__(self):
        return sum(len(shard) for shard in self._shards)

    def shard(self, index):
        """The :class:`NeighborIndexCache` partition for shard ``index``."""
        return self._shards[index]

    def clear(self):
        for shard in self._shards:
            shard.clear()

    def stats(self):
        """Aggregate counters plus the ``per_shard`` breakdown."""
        per_shard = [shard.stats() for shard in self._shards]
        merged = merge_cache_stats(per_shard)
        merged["shards"] = len(per_shard)
        merged["per_shard"] = per_shard
        return merged
