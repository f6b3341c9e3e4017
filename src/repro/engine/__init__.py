"""Batched multi-cloud inference engine.

The serving layer over the reproduction: stack B clouds into (B, N, 3)
arrays and drive the full forward pass batch-at-a-time
(:class:`BatchRunner`), skip repeated neighbor searches with a
content-keyed single-flight LRU (:class:`NeighborIndexCache`), and drain
serving sub-batches through a persistent thread pool
(:class:`ParallelRunner`).  ``repro bench`` exercises the first two and
records the throughput trajectory in ``BENCH_engine.json``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "run_benchmarks": "bench",
    "validate_row": "bench",
    "write_json": "bench",
    "NeighborIndexCache": "cache",
    "content_digest": "cache",
    "ParallelRunner": "parallel",
    "BatchResult": "runner",
    "BatchRunner": "runner",
})
