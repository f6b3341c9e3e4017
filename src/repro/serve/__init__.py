"""Continuous-batching serving frontend.

The layer that turns *traffic* into the ``(B, N, 3)`` stacks every
other entry point assumes: :class:`Server` admits heterogeneous
point-cloud requests onto a bounded per-tenant fair queue
(:class:`FairQueue`).  A server's lanes are its dispatcher threads:
a free lane takes up to ``max_batch`` queued requests
(:class:`BatchPolicy`) — never waiting for riders — splits a mixed-``N``
batch into per-shape sub-batches, and drains each inline through an
engine runner's compiled kernel program (float64 by default, float32
on request).  ``repro serve`` wraps it in a stdin/socket JSON request
loop; a response is bit-exact against a direct
:class:`~repro.engine.runner.BatchRunner` call on its cloud alone.

Sharded serving layers on top (:mod:`repro.serve.shard`):
:func:`plan_placement` numbers a fixed fleet of replicas, round-robin
over the hosted networks, and :class:`ShardRouter` fronts the replica
:class:`Server` fleet, one lane per replica — routing each request to
its shape class, then to the replica its content digest picks (modulo
the replica count) so repeated clouds land on the shard whose
partition of the neighbor-index cache already holds their index.

Serving latency and throughput are measured in one place, through the
real ``repro serve`` process: ``benchmarks/ledger/README.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "BatchPolicy": "batcher",
    "split_by_shape": "batcher",
    "FairQueue": "queue",
    "QueueFull": "queue",
    "Request": "queue",
    "ServeError": "queue",
    "ServerClosed": "queue",
    "Server": "server",
    "ServeResponse": "server",
    "PlacementPlan": "shard",
    "Replica": "shard",
    "ShardRouter": "shard",
    "plan_placement": "shard",
})
