"""Neighborhood statistics (Fig 6 of the paper).

The key memory-cost driver in point cloud networks is that one input
point belongs to many overlapping neighborhoods and is re-normalized in
each.  :func:`neighborhood_occupancy` counts how many neighborhoods
each point occurs in; Fig 6 plots those counts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["neighborhood_occupancy"]


def neighborhood_occupancy(neighbor_indices, n_points):
    """Count, per input point, the neighborhoods it appears in.

    Parameters
    ----------
    neighbor_indices:
        (Q, K) array of neighbor indices (one row per centroid).
    n_points:
        Size of the searched point set.

    Returns
    -------
    (n_points,) int array of occurrence counts.
    """
    idx = np.asarray(neighbor_indices)
    counts = np.bincount(idx.reshape(-1), minlength=n_points)
    if len(counts) > n_points:
        raise ValueError("neighbor index exceeds n_points")
    return counts
