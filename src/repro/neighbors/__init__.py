"""Neighbor search substrate: the operator ``N`` of the paper."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ball_query": "ball",
    "knn_brute_force": "brute",
    "pairwise_squared_distances": "brute",
    "SUBSTRATES": "dispatch",
    "active_search_options": "dispatch",
    "neighbor_search": "dispatch",
    "raw_knn": "dispatch",
    "search_context": "dispatch",
    "UniformGrid": "grid",
    "KDTree": "kdtree",
    "farthest_point_sampling": "sampling",
    "random_sampling": "sampling",
    "mean_occupancy": "stats",
    "neighborhood_occupancy": "stats",
    "occupancy_histogram": "stats",
})
