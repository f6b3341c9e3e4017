"""Async pipeline: N/F overlap within and across modules.

Delayed aggregation makes a module's neighbor search (N) independent of
its hoisted MLP (F), so the two can run concurrently — and because the
whole network lowers to one graph, module i+1's search is independent
of module i's drain too.  This example:

1. prints the static N/F-lane schedule the IR lowers to (the overlap
   the ``delayed`` rewrite unlocks per module),
2. prints the *whole-network* schedule and its cross-module overlap
   steps (module i+1's N lane sharing a step with module i's F work),
3. serves one batch through the async scheduler and verifies the
   outputs are bit-exact against the serial graph executor,
4. measures per-module vs cross-module overlap speedups, then
   pipelines several batches back-to-back the way a serving loop would.

Speedup comes purely from concurrency, so expect ~1x on a single-core
host and more as cores grow (the numpy search/matmul kernels release
the GIL).

Run:  python examples/async_pipeline.py
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine import AsyncRunner, OverlapExecutor
from repro.graph import module_graph, schedule_graph
from repro.networks import build_network
from repro.neural import no_grad

BATCH = 8
net = build_network("PointNet++ (c)", scale=0.25)
rng = np.random.default_rng(0)
clouds = rng.normal(size=(BATCH, net.n_points, 3))

# -- 1. The static overlap schedule, per module --------------------------------

print("What the delayed rewrite unlocks (steps with N and F lanes overlap):\n")
print(schedule_graph(module_graph(net.encoder[0].spec, "delayed")).describe())
original = schedule_graph(module_graph(net.encoder[0].spec, "original"))
print(f"\nFor comparison, the original-order graph has "
      f"{len(original.overlap_steps())} overlap steps — nothing to run "
      "concurrently until aggregation is delayed.\n")

# -- 2. The whole-network schedule: overlap across module boundaries ----------

network_schedule = net.network_graph("delayed").schedule()
per_module = sum(
    len(schedule_graph(module_graph(m.spec, "delayed")).overlap_steps())
    for m in net.encoder
)
cross = network_schedule.cross_module_overlap_steps()
print(f"whole-network schedule: {len(network_schedule.overlap_steps())} "
      f"overlap step(s) ({per_module} from the per-module schedules, "
      f"{len(cross)} cross-module)")
for step in cross[:2]:
    cells = ", ".join(
        f"{e.node.kind}[{e.lane}]@{e.node.attrs.get('label', '-')}"
        for e in step if e.node.kind not in ("coords", "lift")
    )
    print(f"  e.g. module boundaries overlap in one step: {cells}")

# Measure exactly that: one cloud, the serial GraphExecutor vs the
# OverlapExecutor (the same interpreter walking the dependency frontier)
# on a small search pool.  There are three executors in all — these two
# and the kernel runtime's NetworkKernelExecutor — and they know one
# arity: a cloud is a stack of one; `net.forward` lifts it with
# `cloud[None]` and unwraps the result, executors never look at rank.
cloud = clouds[0]
with no_grad(), ThreadPoolExecutor(max_workers=2) as pool:
    executor = OverlapExecutor(pool)
    start = time.perf_counter()
    for _ in range(3):
        net.forward(cloud, strategy="delayed")
    serial_s = (time.perf_counter() - start) / 3
    start = time.perf_counter()
    for _ in range(3):
        net.forward(cloud, strategy="delayed", executor=executor)
    overlap_s = (time.perf_counter() - start) / 3
print(f"one cloud: serial {serial_s * 1e3:6.1f} ms   cross-module overlap "
      f"{overlap_s * 1e3:6.1f} ms   ({serial_s / overlap_s:.2f}x)\n")

# -- 3. Bit-exactness ----------------------------------------------------------

# No NeighborIndexCache here on purpose: a warm cache would serve the
# N lane for free and the timings below would no longer measure N/F
# overlap (see docs/api.md for the cache's own single-flight story).
runner = AsyncRunner(net, strategy="delayed")
serial = runner.run_sequential(clouds)   # the serial graph executor
overlapped = runner.run(clouds)          # N/F overlap + in-flight clouds
assert np.array_equal(serial.outputs, overlapped.outputs)
print(f"async outputs are bit-exact vs the serial executor "
      f"({overlapped.outputs.shape} logits, "
      f"{runner.max_workers} worker(s), {runner.in_flight} in flight)")

# -- 4. Measured overlap -------------------------------------------------------

serial_s = min(
    runner.run_sequential(clouds).seconds for _ in range(3)
)
async_s = min(runner.run(clouds).seconds for _ in range(3))
print(f"\nserial  {serial_s * 1e3:7.1f} ms   "
      f"async {async_s * 1e3:7.1f} ms   "
      f"overlap speedup {serial_s / async_s:.2f}x "
      f"on {os.cpu_count()} cpu(s)")

# -- 5. A serving loop: many batches in flight --------------------------------

start = time.perf_counter()
served = sum(runner.run(rng.normal(size=(BATCH, net.n_points, 3))).batch_size
             for _ in range(4))
elapsed = time.perf_counter() - start
print(f"served {served} clouds in {elapsed * 1e3:.0f} ms "
      f"({served / elapsed:.0f} clouds/s) across 4 pipelined batches")

# Worker pools persist across run() calls (a serving loop pays thread
# construction once); release them when done — or use the runner as a
# context manager (`with AsyncRunner(net) as runner: ...`).
runner.close()
