"""Timing gate: float32 kernel programs over the batched eager executors.

The one timing claim of the kernel runtime: on PointNet++ (c) at scale
0.125 with ``delayed`` aggregation, a batch of 16 clouds runs at least
1.5x faster through ``BatchRunner(net, backend="float32")`` than
through the default graph interpreter.  Correctness of the same
programs (float64 bit-exact, float32 tolerance and top-1) is pinned by
``tests/test_backend.py``; this file only times them.  Run it with
``PYTHONPATH=src python -m pytest benchmarks/test_kernel_speedup.py -q -s``.
"""

import time

import numpy as np

from repro.engine import BatchRunner
from repro.networks import build_network

BATCH = 16
REPEATS = 3
MIN_SPEEDUP = 1.5


def _seconds(runner, clouds):
    start = time.perf_counter()
    runner.run(clouds)
    return time.perf_counter() - start


def test_float32_kernels_beat_batched_eager():
    net = build_network("PointNet++ (c)", scale=0.125)
    clouds = np.random.default_rng(0).normal(size=(BATCH, net.n_points, 3))
    eager = BatchRunner(net, strategy="delayed")
    fast = BatchRunner(net, strategy="delayed", backend="float32")
    eager.run(clouds)  # warm: first compile, arena measuring run
    fast.run(clouds)
    # Interleaved best-of, so clock drift hits both sides equally.
    eager_s = fast_s = float("inf")
    for _ in range(REPEATS):
        eager_s = min(eager_s, _seconds(eager, clouds))
        fast_s = min(fast_s, _seconds(fast, clouds))
    speedup = eager_s / fast_s
    print(f"\nfloat32 kernels {fast_s * 1e3:.1f} ms vs batched eager "
          f"{eager_s * 1e3:.1f} ms (B={BATCH}): {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP
