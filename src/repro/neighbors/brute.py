"""Brute-force K-nearest-neighbor search.

This is the operator ``N`` of the paper — the explicit neighbor search
point cloud networks need because points are irregularly scattered in
space (unlike pixels, which are indexed directly).  The brute-force
version mirrors what the GPU kernels in the author artifact compute:
an all-pairs distance matrix followed by a top-K selection.

Both entry points accept an optional leading batch axis — ``(B, N, D)``
points with ``(B, Q, D)`` queries — so a serving engine can push a stack
of clouds through one call.  The kernel is cache-blocked: the distance
matrix is materialized in query blocks that fit in cache rather than as
one ``(B, Q, N)`` tensor, because on CPU the monolithic tensor thrashes
the LLC and loses to the blocked sweep.  Each cloud runs through the
identical blocked arithmetic whether it arrives alone or in a batch, so
batched results are bit-exact matches of the per-cloud loop.

Both entry points measure distances about the centre of each cloud, so
a neighbour set does not depend on where the cloud sits: expanded about
the origin, ``|q|^2 + |p|^2 - 2 q.p`` cancels away the distances of a
unit-sized cloud a thousand units out in float32.
"""

from __future__ import annotations

import numpy as np

__all__ = ["knn_brute_force", "neighbor_search", "pairwise_squared_distances"]

#: Query rows per distance block: 256 rows x 4096 points x 8 bytes = 8 MB
#: worst case, comfortably inside the last-level cache for typical N.
_DEFAULT_BLOCK = 256


def _as_float(array, dtype):
    """Coerce to a floating dtype, copying only when the dtype changes.

    ``dtype=None`` keeps the historical float64 default.  Passing the
    array's own dtype makes this a no-op, which is what keeps the
    batched path from doubling memory on large float32 clouds.
    """
    array = np.asarray(array)
    if dtype is None:
        dtype = np.float64
    return array.astype(dtype, copy=False)


def _centred(queries, points):
    """``queries`` and ``points`` shifted by the centre of the points'
    bounding box (per cloud, along the point axis).

    Min and max are exact and do not depend on the order or memory
    layout of the points, so a cloud gets the same shift, bit for bit,
    however it is stored.
    """
    if points.shape[-2] == 0:
        return queries, points
    origin = (points.min(axis=-2, keepdims=True)
              + points.max(axis=-2, keepdims=True)) / 2
    return queries - origin, points - origin


def pairwise_squared_distances(queries, points, dtype=None):
    """(..., Q, D) x (..., N, D) -> (..., Q, N) squared Euclidean distances.

    Leading batch axes must match between the two arrays.  ``dtype``
    selects the computation precision; ``None`` preserves the historical
    float64 behaviour, while passing the inputs' own dtype skips the
    conversion copy entirely.
    """
    queries = _as_float(queries, dtype)
    points = _as_float(points, dtype)
    if queries.ndim < 2 or points.ndim < 2:
        raise ValueError("queries and points must be at least 2-D arrays")
    if queries.ndim != points.ndim:
        raise ValueError(
            f"queries ({queries.ndim}-D) and points ({points.ndim}-D) "
            "must have the same number of dimensions"
        )
    if queries.shape[-1] != points.shape[-1]:
        raise ValueError(
            f"dimension mismatch: queries have {queries.shape[-1]} dims, "
            f"points have {points.shape[-1]}"
        )
    if queries.shape[:-2] != points.shape[:-2]:
        raise ValueError(
            f"batch mismatch: queries {queries.shape[:-2]}, "
            f"points {points.shape[:-2]}"
        )
    queries, points = _centred(queries, points)
    q_sq = (queries ** 2).sum(axis=-1)[..., :, None]
    p_sq = (points ** 2).sum(axis=-1)[..., None, :]
    # The transposed operand is copied contiguous: BLAS packs a (D, N)
    # strided view of a D=3 matrix an order of magnitude slower than it
    # multiplies the dense copy.
    points_t = np.ascontiguousarray(points.swapaxes(-1, -2))
    d = q_sq + p_sq - 2.0 * (queries @ points_t)
    np.maximum(d, 0.0, out=d)
    return d


def _knn_one_cloud(points, queries, k, block):
    """Blocked KNN kernel over one (N, D) cloud. Inputs pre-coerced."""
    n = points.shape[0]
    if queries.shape[1] != points.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have {queries.shape[1]} dims, "
            f"points have {points.shape[1]}"
        )
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")
    queries, points = _centred(queries, points)
    dtype = points.dtype
    q_count = queries.shape[0]
    # One GEMM per block writes -2 * q . p directly into the buffer; the
    # per-query |q|^2 term is constant along each row, so it cannot
    # change the top-K selection and is added to the k survivors only.
    neg2_pt = points.T * np.asarray(-2.0, dtype=dtype)
    p_sq = (points ** 2).sum(axis=1)
    out_i = np.empty((q_count, k), dtype=np.int64)
    out_d = np.empty((q_count, k), dtype=dtype)
    block = max(1, min(block, q_count)) if q_count else 1
    buf = np.empty((block, n), dtype=dtype)
    for start in range(0, q_count, block):
        stop = min(start + block, q_count)
        qb = queries[start:stop]
        d = np.matmul(qb, neg2_pt, out=buf[: stop - start])
        d += p_sq
        if k < n:
            part = np.argpartition(d, k - 1, axis=1)[:, :k]
        else:
            part = np.broadcast_to(np.arange(n), (stop - start, n)).copy()
        part_d = np.take_along_axis(d, part, axis=1)
        part_d += (qb ** 2).sum(axis=1)[:, None]
        np.maximum(part_d, 0.0, out=part_d)
        order = np.argsort(part_d, axis=1, kind="stable")
        out_i[start:stop] = np.take_along_axis(part, order, axis=1)
        out_d[start:stop] = np.sqrt(np.take_along_axis(part_d, order, axis=1))
    return out_i, out_d


def knn_brute_force(points, queries, k, dtype=None, block=_DEFAULT_BLOCK):
    """Return the ``k`` nearest neighbors of each query.

    Parameters
    ----------
    points:
        (N, D) array to search in, or a batched (B, N, D) stack.
    queries:
        (Q, D) query points (typically a subset of ``points``: the
        centroids chosen by sampling), or (B, Q, D) matching a batched
        ``points``.
    k:
        Neighborhood size.  Must not exceed N.
    dtype:
        Computation precision.  ``None`` keeps the float64 default;
        ``np.float32`` halves memory traffic (returned indices are the
        same away from exact distance ties).
    block:
        Query rows per distance block (cache tiling knob).

    Returns
    -------
    indices : (Q, k) or (B, Q, k) int array
        Neighbor indices into ``points``, sorted by increasing distance.
    distances : (Q, k) or (B, Q, k) float array
        Corresponding Euclidean distances.
    """
    points = _as_float(points, dtype)
    queries = _as_float(queries, dtype)
    if points.ndim != queries.ndim:
        raise ValueError(
            f"points ({points.ndim}-D) and queries ({queries.ndim}-D) "
            "must have the same number of dimensions"
        )
    if points.ndim == 2:
        return _knn_one_cloud(points, queries, k, block)
    if points.ndim != 3:
        raise ValueError("points and queries must be 2-D, or 3-D for a batch")
    if points.shape[0] != queries.shape[0]:
        raise ValueError(
            f"batch mismatch: {points.shape[0]} point clouds, "
            f"{queries.shape[0]} query sets"
        )
    batch = points.shape[0]
    out_i = np.empty((batch, queries.shape[1], k), dtype=np.int64)
    out_d = np.empty((batch, queries.shape[1], k), dtype=points.dtype)
    for b in range(batch):
        out_i[b], out_d[b] = _knn_one_cloud(points[b], queries[b], k, block)
    return out_i, out_d


#: Another name for :func:`knn_brute_force`, kept for the benchmark
#: ledger's ``neighbors.knn_ms`` probe, its one remaining reader.
neighbor_search = knn_brute_force
