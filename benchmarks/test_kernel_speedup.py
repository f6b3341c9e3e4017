"""Timing gate: float32 kernel programs over the batched graph interpreter.

The one timing claim of the kernel runtime: on PointNet++ (c) at scale
0.125 with ``delayed`` aggregation, a batch of 16 clouds runs at least
1.5x faster through ``BatchRunner(net, backend="float32")`` than
through the batched graph interpreter (``net.forward_batch`` under
``no_grad()``, the training path and the oracle; it does not serve).
Correctness of the same programs (float64 bit-exact, float32 tolerance
and top-1) is pinned by ``tests/test_backend.py``; this file only times
them.  Run it with
``PYTHONPATH=src python -m pytest benchmarks/test_kernel_speedup.py -q -s``.
"""

import time

import numpy as np

from repro.engine import BatchRunner
from repro.networks import build_network
from repro.neural import no_grad

BATCH = 16
REPEATS = 3
MIN_SPEEDUP = 1.5


def _seconds(run, clouds):
    start = time.perf_counter()
    run(clouds)
    return time.perf_counter() - start


def test_float32_kernels_beat_the_batched_interpreter():
    net = build_network("PointNet++ (c)", scale=0.125)
    clouds = np.random.default_rng(0).normal(size=(BATCH, net.n_points, 3))

    def interpret(stack):
        with no_grad():
            return net.forward_batch(stack, strategy="delayed")

    fast = BatchRunner(net, strategy="delayed", backend="float32").run
    interpret(clouds)  # warm: the graph build and the first compile
    fast(clouds)
    # Interleaved best-of, so clock drift hits both sides equally.
    interpreter_s = fast_s = float("inf")
    for _ in range(REPEATS):
        interpreter_s = min(interpreter_s, _seconds(interpret, clouds))
        fast_s = min(fast_s, _seconds(fast, clouds))
    speedup = interpreter_s / fast_s
    print(f"\nfloat32 kernels {fast_s * 1e3:.1f} ms vs batched interpreter "
          f"{interpreter_s * 1e3:.1f} ms (B={BATCH}): {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP
