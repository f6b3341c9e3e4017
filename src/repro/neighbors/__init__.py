"""Neighbor search substrate: the operator ``N`` of the paper."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ball_query": "ball",
    "knn_brute_force": "brute",
    "pairwise_squared_distances": "brute",
    "neighbor_search": "brute",
    "KDTree": "kdtree",
    "farthest_point_sampling": "sampling",
    "random_sampling": "sampling",
    "neighborhood_occupancy": "stats",
})
