"""Quickstart: the delayed-aggregation primitive in five minutes.

Builds one point cloud module (the first module of PointNet++, Fig 3 /
Fig 8 of the paper), runs it alone (``module(coords, features)``) under
the original, delayed and limited execution strategies, lowers its
operator trace from the same graph (``module.trace(strategy)``), and
shows the three headline effects:

1. delayed only approximates original (Equ. 3: the ReLU does not
   distribute over the max; retraining recovers the accuracy), while
   limited, which hoists only the exactly linear first product, agrees
   to rounding,
2. feature computation runs over far fewer rows (fewer MACs),
3. neighbor search and feature computation become overlappable.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import ModuleSpec, PointCloudModule, relative_error
from repro.neural import Tensor

# The paper's example module: 1024 points -> 512 centroids, K=32
# neighbors, shared MLP [3, 64, 64, 128].
spec = ModuleSpec(
    "pointnet2_module1", n_in=1024, n_out=512, k=32, mlp_dims=(3, 64, 64, 128)
)
module = PointCloudModule(spec, rng=np.random.default_rng(0))

# A random input cloud; features of the first module are the 3-D coords.
rng = np.random.default_rng(1)
coords = rng.normal(size=(1024, 3))
features = Tensor(coords.copy())

# -- 1. Functional comparison ------------------------------------------------

original = module(coords, features, strategy="original")
delayed = module(coords, features, strategy="delayed")
limited = module(coords, features, strategy="limited")

err_delayed = relative_error(delayed.features.data, original.features.data)
err_limited = relative_error(limited.features.data, original.features.data)
print("output shape:                ", original.features.shape)
print(f"delayed vs original error:    {err_delayed:.4f}  (approximate, Equ. 3)")
print(f"limited vs original error:    {err_limited:.2e}  (exact MVM hoisting)")

# -- 2. Workload comparison ----------------------------------------------------

trace_orig = module.trace("original")
trace_delayed = module.trace("delayed")
macs_orig = trace_orig.mlp_macs()
macs_delayed = trace_delayed.mlp_macs()
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
