"""LRU neighbor-index cache: skip searches the engine has already done.

Neighbor search is the serving bottleneck the paper attacks; in a
serving workload the same cloud often comes back (retries, multi-model
ensembles, per-frame re-ranking), and its neighbor tables are identical
every time.  The cache keys on *content* — a digest of the cloud and
query arrays plus (k, radius, substrate, dtype) — so any repeated query
skips the search entirely, no matter which code path issues it.

Plug an instance into :func:`repro.neighbors.search_context` (or a
:class:`repro.engine.BatchRunner`) and every search in scope consults
it.  A stack resolves each *distinct* cloud once: hits (and a stack's
own repeats of one cloud) are served from the table, and only the
still-missing distinct clouds are recomputed, together, through the
batched substrate kernel.

The cache is thread-safe, and every lookup — single cloud or stack —
is *single-flight*: when several identical searches are in flight
concurrently (the same cloud pipelined on different workers, each as a
stack of one), exactly one thread computes while the rest wait and
then hit — concurrent duplicates never duplicate the index build.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..neighbors import ball_query, raw_knn

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

    Entries are ``(indices, distances)`` for KNN and ``(indices,
    counts)`` for ball queries.  Returned arrays are the cached objects
    themselves — treat them as read-only.
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
    def _key(kind, points, queries, k, radius, substrate, dtype, tag=None):
        # A graph search-node signature replaces the query digest: the
        # queries are that node's deterministic centroid draw over the
        # points, so (points digest, tag) already identifies them and
        # hashing the derived array again would be pure overhead.
        query_id = ("tag", tag) if tag is not None else content_digest(queries)
        return (
            kind,
            content_digest(points),
            query_id,
            int(k),
            float(radius) if radius is not None else None,
            substrate,
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

    def _release(self, keys):
        """Give up the claims on ``keys`` and wake their waiters."""
        with self._lock:
            events = [self._pending.pop(key) for key in keys]
        for event in events:
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
            self._release([key])

    def _lookup_batch(self, kind, points, queries, params, compute, tag=None):
        """Resolve a (B, ...) stack: each distinct cloud once, single-flight.

        One pass under the lock sorts the stack's distinct keys into
        hits, keys another thread is already computing, and keys this
        thread claims (a repeat of a cloud inside the stack is a hit).
        The claimed clouds compute together in one ``compute`` call and
        their claims are released before this thread waits on anyone
        else's — so two stacks claiming overlapping keys in opposite
        orders cannot deadlock.
        """
        keys = [
            self._key(kind, points[b], queries[b], *params, tag=tag)
            for b in range(points.shape[0])
        ]
        first_row = {}
        for b, key in enumerate(keys):
            first_row.setdefault(key, b)
        found, claimed, awaited = {}, [], []
        with self._lock:
            for key in first_row:
                entry, waiter = self._claim(key)
                if entry is not None:
                    found[key] = entry
                elif waiter is None:
                    claimed.append(key)
                else:
                    awaited.append(key)
            self.hits += len(keys) - len(first_row)
        if claimed:
            try:
                rows = [first_row[key] for key in claimed]
                first, second = compute(points[rows], queries[rows])
                for j, key in enumerate(claimed):
                    # Copy out of the batch buffer: caching a view would
                    # pin the whole (M, Q, k) compute output for as long
                    # as any one cloud survives in the LRU.
                    found[key] = self._put(
                        key, (first[j].copy(), second[j].copy())
                    )
            finally:
                self._release(claimed)
        for key in awaited:
            row = slice(first_row[key], first_row[key] + 1)

            def compute_one():
                first, second = compute(points[row], queries[row])
                return first[0], second[0]

            found[key] = self._single(key, compute_one)
        return (
            np.stack([found[key][0] for key in keys]),
            np.stack([found[key][1] for key in keys]),
        )

    # -- lookups ------------------------------------------------------------

    def knn(self, points, queries, k, substrate="brute", dtype=None, tag=None):
        """Cached KNN; same shapes and semantics as :func:`raw_knn`.

        ``tag`` is an optional graph search-node signature (see
        :func:`repro.graph.build.search_signature`); when given, the
        query array is not digested for the key.
        """
        points = np.asarray(points)
        queries = np.asarray(queries)
        params = (k, None, substrate, dtype)
        if points.ndim == 2:
            key = self._key("knn", points, queries, *params, tag=tag)
            return self._single(
                key,
                lambda: raw_knn(points, queries, k, substrate=substrate,
                                dtype=dtype),
            )

        def compute(miss_points, miss_queries):
            return raw_knn(miss_points, miss_queries, k, substrate=substrate,
                           dtype=dtype)

        return self._lookup_batch("knn", points, queries, params, compute,
                                  tag=tag)

    def ball(self, points, queries, radius, max_samples, dtype=None):
        """Cached ball query; same shapes and semantics as :func:`ball_query`."""
        points = np.asarray(points)
        queries = np.asarray(queries)
        params = (max_samples, radius, "brute", dtype)
        if points.ndim == 2:
            key = self._key("ball", points, queries, *params)
            return self._single(
                key,
                lambda: ball_query(points, queries, radius, max_samples,
                                   dtype=dtype),
            )

        def compute(miss_points, miss_queries):
            return ball_query(miss_points, miss_queries, radius, max_samples,
                              dtype=dtype)

        return self._lookup_batch("ball", points, queries, params, compute)


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
        self.maxsize = int(maxsize)
        # Budget splits across partitions; every shard gets at least
        # one slot so a tiny budget still caches *something* per shard.
        per_shard = max(1, self.maxsize // shards)
        self._shards = tuple(
            NeighborIndexCache(per_shard) for _ in range(shards)
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
