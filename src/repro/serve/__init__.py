"""Continuous-batching serving frontend.

The layer that turns *traffic* into the ``(B, N, 3)`` stacks every
other entry point assumes: :class:`Server` admits heterogeneous
point-cloud requests onto a bounded per-tenant fair queue
(:class:`FairQueue`), coalesces arrivals under a
:class:`BatchPolicy` (``max_batch`` / ``max_wait_ms`` deadline), splits
mixed-``N`` batches into per-shape sub-batches, and drains each through
an engine runner — the batched graph interpreter or a compiled kernel
backend alike.  ``repro serve`` wraps it in a stdin/socket JSON request
loop; :func:`bench_serve` replays open-loop Poisson arrivals against it
and reports p50/p99 latency and throughput per (rate, policy), with
responses gated bit-exact against direct
:class:`~repro.engine.runner.BatchRunner` calls.

Sharded serving layers on top (:mod:`repro.serve.shard`):
:func:`plan_placement` bin-packs (network, shape-class) replicas onto
worker slots by measured working-set bytes, and :class:`ShardRouter`
fronts the resulting replica :class:`Server` fleet — routing each
request to its shape class, with consistent-hash cache affinity so
repeated clouds land on the shard whose partition of the neighbor-index
cache already holds their index.  :func:`bench_shard` measures the
throughput scaling story at 1/2/4 shards.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "BatchPolicy": "batcher",
    "gather": "batcher",
    "split_by_shape": "batcher",
    "bench_serve": "harness",
    "bench_shard": "harness",
    "serve_bench_results": "harness",
    "shard_bench_results": "harness",
    "FairQueue": "queue",
    "QueueFull": "queue",
    "Request": "queue",
    "ServeError": "queue",
    "ServerClosed": "queue",
    "Server": "server",
    "ServeResponse": "server",
    "HashRing": "shard",
    "PlacementError": "shard",
    "PlacementPlan": "shard",
    "Replica": "shard",
    "ShardRouter": "shard",
    "plan_placement": "shard",
    "replica_working_set": "shard",
})
