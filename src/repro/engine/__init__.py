"""Batched multi-cloud inference engine.

The serving layer over the reproduction: stack B clouds into (B, N, 3)
arrays and drive the full forward pass batch-at-a-time
(:class:`BatchRunner`), and skip repeated neighbor searches with a
content-keyed single-flight LRU (:class:`NeighborIndexCache`).
:class:`ParallelRunner` is a constructor the benchmark ledger still
calls; nothing in the package reads it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "NeighborIndexCache": "cache",
    "content_digest": "cache",
    "ParallelRunner": "parallel",
    "BatchResult": "runner",
    "BatchRunner": "runner",
})
