"""Delayed-aggregation: the paper's primary contribution."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "linear_distributivity_gap": "equivalence",
    "max_subtract_gap": "equivalence",
    "mlp_distributivity_gap": "equivalence",
    "relative_error": "equivalence",
    "STRATEGIES": "module",
    "ModuleSpec": "module",
    "PointCloudModule": "module",
    "strided_centroids": "module",
})
