"""Quickstart: the delayed-aggregation primitive in five minutes.

Builds one point cloud module (the first module of PointNet++, Fig 3 /
Fig 8 of the paper) as a one-module network
(``GenericPointCloudNetwork([spec], head_dims=...)``: the module, a
global max-pool and a linear classifier), runs it under the original,
delayed and limited execution strategies, lowers its operator trace
from the same graph (``net.trace(strategy)``), and shows the three
headline effects:

1. delayed only approximates original (Equ. 3: the ReLU does not
   distribute over the max; retraining recovers the accuracy), while
   limited, which hoists only the exactly linear first product, agrees
   to rounding,
2. feature computation runs over far fewer rows (fewer MACs),
3. neighbor search and feature computation become overlappable.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import ModuleSpec
from repro.networks import GenericPointCloudNetwork
from repro.neural import no_grad

# The paper's example module: 1024 points -> 512 centroids, K=32
# neighbors, shared MLP [3, 64, 64, 128]; a 10-class head reads it.
spec = ModuleSpec(
    "pointnet2_module1", n_in=1024, n_out=512, k=32, mlp_dims=(3, 64, 64, 128)
)
net = GenericPointCloudNetwork([spec], head_dims=(128, 10),
                               rng=np.random.default_rng(0))

# A random input cloud; the module's input features are its 3-D coords.
cloud = np.random.default_rng(1).normal(size=(1024, 3))

# -- 1. Functional comparison ------------------------------------------------

with no_grad():
    logits = {strategy: net.forward(cloud, strategy=strategy).data
              for strategy in ("original", "delayed", "limited")}


def relative_error(approx, exact):
    """Frobenius-norm error of ``approx``, relative to ``exact``."""
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


err_delayed = relative_error(logits["delayed"], logits["original"])
err_limited = relative_error(logits["limited"], logits["original"])
print("logits shape:                ", logits["original"].shape)
print(f"delayed vs original error:    {err_delayed:.4f}  (approximate, Equ. 3)")
print(f"limited vs original error:    {err_limited:.2e}  (exact MVM hoisting)")
assert err_limited < 1e-12 < err_delayed

# -- 2. Workload comparison ----------------------------------------------------

# The module's own records: the head's matmul is not the module's work.
trace_orig = net.trace("original")
trace_delayed = net.trace("delayed")


def module_macs(trace):
    return sum(op.macs for op in trace
               if op.module == spec.name and op.phase == "F")


macs_orig = module_macs(trace_orig)
macs_delayed = module_macs(trace_delayed)
print(f"\nMLP MACs original:            {macs_orig / 1e6:.1f} M "
      f"(runs over {spec.n_out} x {spec.k} aggregated rows)")
print(f"MLP MACs delayed:             {macs_delayed / 1e6:.1f} M "
      f"(runs over the {spec.n_in} input points)")
print(f"reduction:                    "
      f"{100 * (1 - macs_delayed / macs_orig):.0f}%")

# -- 3. Overlap ----------------------------------------------------------------

overlappable = [op for op in trace_delayed if op.parallelizable]
print(f"\n{len(overlappable)} delayed-trace ops are tagged overlappable "
      "(neighbor search runs concurrently with the MLP, Fig 8).")
assert not any(op.parallelizable for op in trace_orig)
print("The original trace has none — N, A, F are serialized (Fig 2b).")
