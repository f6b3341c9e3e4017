"""One KNN entry point, with an optional scoped neighbor-index cache.

The serving engine (:mod:`repro.engine`) needs to skip searches entirely
when an LRU cache already holds the neighbor table for a cloud it has
seen before — including the searches buried in module and network
forward passes, which take no cache argument.

:func:`neighbor_search` is the single entry point the algorithmic layer
calls.  It runs the vectorized brute-force kernel
(:func:`~repro.neighbors.brute.knn_brute_force`) over one cloud or a
leading batch axis; inside a :func:`search_context` it consults the
cache the engine scoped over the run first.
"""

from __future__ import annotations

import contextlib
import threading

from .brute import knn_brute_force

__all__ = ["neighbor_search", "search_context"]

# Per-thread: concurrent runners (e.g. two engines on one thread pool)
# must not see each other's caches.
_LOCAL = threading.local()


@contextlib.contextmanager
def search_context(cache=None):
    """Scope a neighbor-index cache over all neighbor searches.

    Every :func:`neighbor_search` call issued on this thread inside the
    ``with`` block — including the ones buried in module and network
    forward passes — consults ``cache``.  ``None`` leaves the enclosing
    scope's cache in place.  Contexts nest.
    """
    previous = getattr(_LOCAL, "cache", None)
    if cache is not None:
        _LOCAL.cache = cache
    try:
        yield
    finally:
        _LOCAL.cache = previous


def neighbor_search(points, queries, k, dtype=None, tag=None):
    """Brute-force KNN through the active :func:`search_context`'s cache.

    Same shapes and semantics as
    :func:`~repro.neighbors.brute.knn_brute_force`; ``dtype`` is the
    search precision (``None`` = float64).  ``tag`` optionally names the
    issuing graph search node: when a cache is active it keys the entry
    on (points digest, tag) instead of digesting the derived query
    array — sound whenever the queries are a deterministic function of
    the points, as a module's centroid draw is.  Without a cache the tag
    is ignored.
    """
    cache = getattr(_LOCAL, "cache", None)
    if cache is not None:
        return cache.knn(points, queries, k, dtype=dtype, tag=tag)
    return knn_brute_force(points, queries, k, dtype=dtype)
