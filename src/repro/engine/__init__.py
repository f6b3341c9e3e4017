"""Batched multi-cloud inference engine.

The serving layer over the reproduction: stack B clouds into (B, N, 3)
arrays and drive the full forward pass batch-at-a-time
(:class:`BatchRunner`), overlap neighbor search with feature
computation while pipelining multiple clouds in flight
(:class:`AsyncRunner`), skip repeated neighbor searches with a
content-keyed single-flight LRU (:class:`NeighborIndexCache`), and fan
irregular per-cloud work across cores (:class:`ParallelRunner`).
``repro bench`` exercises all of them and records the throughput
trajectory in ``BENCH_engine.json``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bench_tune": "bench",
    "run_benchmarks": "bench",
    "validate_row": "bench",
    "write_json": "bench",
    "NeighborIndexCache": "cache",
    "content_digest": "cache",
    "ParallelRunner": "parallel",
    "kdtree_nit_task": "parallel",
    "soc_latency_task": "parallel",
    "BatchResult": "runner",
    "BatchRunner": "runner",
    "AsyncRunner": "scheduler",
    "OverlapExecutor": "scheduler",
    "async_forward_task": "scheduler",
    "network_forward_task": "scheduler",
})
