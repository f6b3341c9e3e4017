"""Serving loop: continuous batching in front of the inference engine.

The engine's runners answer *batches*; a service answers *requests*
that arrive one at a time, at unpredictable moments, from independent
clients.  The :class:`repro.serve.Server` bridges the two with
continuous batching: arrivals wait in a bounded fair queue, and the
moment a dispatch lane is free the server takes up to ``max_batch`` of
them at once — it never waits for riders — so batches form from what
queues while earlier batches run, each draining through one kernel
call.  This example:

1. stands up a server over a PointNet++ classifier and submits a burst
   of concurrent requests, showing how the ones that queue behind a
   running batch coalesce into the next,
2. verifies every response is bit-exact against its cloud served
   alone by a direct ``BatchRunner`` (no BLAS call mixes clouds, so
   what shares a stack never changes a cloud's bits),
3. serves two model sizes at once — mixed-``N`` arrivals route by
   point count and split into per-shape sub-batches.

Serving latency and throughput are measured through the real
``repro serve`` process by ``benchmarks/ledger/README.md``.

Run:  python examples/serving_loop.py
"""

import numpy as np

from repro.engine import BatchRunner
from repro.networks import build_network
from repro.serve import BatchPolicy, Server

net = build_network("PointNet++ (c)", scale=0.125)
rng = np.random.default_rng(0)
clouds = rng.normal(size=(12, net.n_points, 3))

# -- 1. A burst of requests coalesces into batches -----------------------------

# The first arrival is dispatched at once; the rest of the burst queues
# while it runs and rides the following batches, up to 4 at a time.
# A runner runs the compiled float64 kernel program by default
# (backend="float32" for the faster float32 program).
policy = BatchPolicy(max_batch=4, max_queue=64)
server = Server(BatchRunner(net, strategy="delayed"), policy=policy)

futures = [server.submit(cloud, request_id=f"req{i}", tenant=f"client{i % 3}")
           for i, cloud in enumerate(clouds)]
responses = [future.result(timeout=60.0) for future in futures]

sizes = sorted({resp.batch_ids: resp.batch_size for resp in responses}.values(),
               reverse=True)
print(f"{len(responses)} requests answered by {len(sizes)} kernel calls, "
      f"batch sizes {sizes}")
stats = server.stats()
print(f"server stats: {stats['completed']} completed, "
      f"mean batch {stats['mean_batch']:.1f}, "
      f"max queue depth {stats['max_depth']}")

# -- 2. Bit-exact against the direct runner ------------------------------------

# Each response equals its cloud served alone through a direct
# BatchRunner, whatever sub-batch it rode in, so any deviation would be
# a serve-pipeline bug (mis-stacked rows, wrong demux), not BLAS noise.
direct = BatchRunner(net, strategy="delayed")
for cloud, resp in zip(clouds, responses):
    assert np.array_equal(resp.output, direct.run(cloud[None]).per_cloud()[0])
print("every response bit-exact vs its cloud served alone")
server.close()

# -- 3. Mixed-N arrivals route by point count ----------------------------------

coarse = build_network("PointNet++ (c)", scale=0.0625)
with Server([BatchRunner(net), BatchRunner(coarse)], policy=policy) as server:
    mixed = [rng.normal(size=(n, 3))
             for n in [net.n_points, coarse.n_points] * 3]
    futures = [server.submit(cloud) for cloud in mixed]
    responses = [future.result(timeout=60.0) for future in futures]
for n in (net.n_points, coarse.n_points):
    answered = [r for c, r in zip(mixed, responses) if c.shape[0] == n]
    print(f"N={n}: {len(answered)} requests, "
          f"sub-batch sizes {[r.batch_size for r in answered]}")
