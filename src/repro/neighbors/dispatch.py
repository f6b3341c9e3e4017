"""Substrate dispatch: one KNN API over brute force, k-d tree and grid.

The serving engine (:mod:`repro.engine`) needs two things from the
neighbor-search layer: to swap the search substrate without rewiring
every module, and to skip searches entirely when an LRU cache already
holds the neighbor table for a cloud it has seen before.  Both are
provided here.

:func:`neighbor_search` is the single entry point the algorithmic layer
calls.  By default it runs the vectorized brute-force kernel; inside a
:func:`search_context` it honors the substrate, cache and dtype the
engine selected.  Brute force vectorizes over a leading batch axis; the
tree- and grid-based substrates fall back to a per-cloud sweep behind
the same API, because their queries are irregular tree walks that do not
batch.
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np

from .brute import knn_brute_force

__all__ = [
    "SUBSTRATES",
    "active_search_options",
    "neighbor_search",
    "raw_knn",
    "search_context",
]

SUBSTRATES = ("brute", "kdtree", "grid")

_DEFAULT_OPTIONS = {"substrate": "brute", "cache": None, "dtype": None}
# Per-thread stacks: concurrent runners (e.g. a ParallelRunner driving
# two engines) must not see each other's options.
_LOCAL = threading.local()


def _option_stack():
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = [dict(_DEFAULT_OPTIONS)]
        _LOCAL.stack = stack
    return stack


def active_search_options():
    """The (substrate, cache, dtype) options currently in effect."""
    return dict(_option_stack()[-1])


@contextlib.contextmanager
def search_context(substrate=None, cache=None, dtype=None):
    """Scope a substrate / cache / dtype choice over all neighbor searches.

    Every :func:`neighbor_search` call issued inside the ``with`` block —
    including the ones buried in module and network forward passes —
    resolves against these options.  ``None`` leaves the enclosing
    scope's choice in place.  Contexts nest.
    """
    stack = _option_stack()
    options = dict(stack[-1])
    if substrate is not None:
        if substrate not in SUBSTRATES:
            raise ValueError(
                f"unknown substrate {substrate!r}; expected one of {SUBSTRATES}"
            )
        options["substrate"] = substrate
    if cache is not None:
        options["cache"] = cache
    if dtype is not None:
        options["dtype"] = dtype
    stack.append(options)
    try:
        yield options
    finally:
        stack.pop()


def _grid_cell_size(points):
    """Heuristic voxel size: the widest extent split ~cbrt(N) ways."""
    extent = points.max(axis=0) - points.min(axis=0)
    widest = float(extent.max())
    if widest <= 0.0:
        return 1.0
    return widest / max(1.0, len(points) ** (1.0 / 3.0))


@functools.cache
def _ckdtree():
    """``scipy.spatial.cKDTree``, or ``None`` without scipy.

    Optional acceleration only — the pure-python :class:`KDTree` remains
    the fallback — and resolved at the first ``kdtree`` search, not at
    import: scipy costs ~0.3 s to load and the default ``brute``
    substrate never needs it.
    """
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return None
    return cKDTree


def _knn_kdtree(points, queries, k):
    cKDTree = _ckdtree()
    if cKDTree is not None:
        distances, indices = cKDTree(points).query(queries, k=k)
        if k == 1:
            distances = distances[:, None]
            indices = indices[:, None]
        return indices.astype(np.int64), np.asarray(distances, dtype=np.float64)
    from .kdtree import KDTree  # the fallback loads with its first search

    return KDTree(points).query_batch(queries, k)


def _knn_grid(points, queries, k):
    if points.shape[1] != 3:
        # Voxel grids are 3-D by construction; feature-space searches
        # (DGCNN modules beyond the first) route to the brute kernel.
        return knn_brute_force(points, queries, k)
    from .grid import UniformGrid  # loads with the first grid search

    grid = UniformGrid(points, _grid_cell_size(points))
    out_i = np.empty((len(queries), k), dtype=np.int64)
    out_d = np.empty((len(queries), k), dtype=np.float64)
    for row, query in enumerate(queries):
        out_i[row], out_d[row] = grid.query(query, k)
    return out_i, out_d


def _search_one_cloud(points, queries, k, substrate, dtype):
    if substrate == "brute":
        return knn_brute_force(points, queries, k, dtype=dtype)
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    # Match the brute kernel's contract: scipy's cKDTree would otherwise
    # pad k > N queries with index N and infinite distance.
    if k <= 0:
        raise ValueError("k must be positive")
    if k > points.shape[0]:
        raise ValueError(f"k={k} exceeds the number of points ({points.shape[0]})")
    if substrate == "kdtree":
        return _knn_kdtree(points, queries, k)
    if substrate == "grid":
        return _knn_grid(points, queries, k)
    raise ValueError(f"unknown substrate {substrate!r}; expected one of {SUBSTRATES}")


def raw_knn(points, queries, k, substrate="brute", dtype=None):
    """Substrate-dispatched KNN with no cache involvement.

    Accepts (N, D)/(Q, D) or batched (B, N, D)/(B, Q, D) inputs for all
    substrates; tree and grid substrates sweep the batch per cloud.
    """
    points = np.asarray(points)
    queries = np.asarray(queries)
    # Validate shapes for every substrate up front: scipy's cKDTree
    # would happily broadcast a 3-D query batch over one 2-D cloud.
    if points.ndim != queries.ndim:
        raise ValueError(
            f"points ({points.ndim}-D) and queries ({queries.ndim}-D) "
            "must have the same number of dimensions"
        )
    if points.ndim == 2:
        return _search_one_cloud(points, queries, k, substrate, dtype)
    if points.ndim != 3:
        raise ValueError("points and queries must be 2-D, or 3-D for a batch")
    if points.shape[0] != queries.shape[0]:
        raise ValueError(
            f"batch mismatch: {points.shape[0]} point clouds, "
            f"{queries.shape[0]} query sets"
        )
    if substrate == "brute":
        return knn_brute_force(points, queries, k, dtype=dtype)
    batch, q_count = points.shape[0], queries.shape[1]
    out_i = np.empty((batch, q_count, k), dtype=np.int64)
    out_d = np.empty((batch, q_count, k), dtype=np.float64)
    for b in range(batch):
        out_i[b], out_d[b] = _search_one_cloud(
            points[b], queries[b], k, substrate, dtype
        )
    return out_i, out_d


def neighbor_search(points, queries, k, substrate=None, cache=None, dtype=None,
                    tag=None):
    """KNN through the active :func:`search_context`.

    Explicit arguments override the context; with neither, this is the
    plain vectorized brute-force search the library always used.
    ``tag`` optionally names the issuing graph search node: when a cache
    is active it keys the entry on (points digest, tag) instead of
    digesting the derived query array — sound whenever the queries are a
    deterministic function of the points, as a module's centroid draw
    is.  Without a cache the tag is ignored.
    """
    options = _option_stack()[-1]
    substrate = substrate if substrate is not None else options["substrate"]
    cache = cache if cache is not None else options["cache"]
    dtype = dtype if dtype is not None else options["dtype"]
    if cache is not None:
        return cache.knn(points, queries, k, substrate=substrate, dtype=dtype,
                         tag=tag)
    return raw_knn(points, queries, k, substrate=substrate, dtype=dtype)
