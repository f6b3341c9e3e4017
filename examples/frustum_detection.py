"""Frustum-based 3D detection with F-PointNet on synthetic LiDAR scenes.

F-PointNet is the paper's KITTI workload: segment the object points
inside a camera frustum, then regress an amodal 3D bounding box.  This
example trains both stages on synthetic frustums and reports mask
accuracy and BEV IoU.

Run:  python examples/frustum_detection.py
"""

import numpy as np

from repro.data import SyntheticFrustum, bev_iou
from repro.networks import build_network, evaluate_detector, train_detector

dataset = SyntheticFrustum(n_samples=10, n_points=256, seed=0)
clouds, masks, boxes = dataset.normalized()
print(f"{len(clouds)} frustums of {clouds.shape[1]} points; "
      f"object fraction {masks.mean():.2f}")

net = build_network("F-PointNet", scale=0.25, rng=np.random.default_rng(0))
n = net.n_points
result = train_detector(
    net, clouds[:8, :n], masks[:8, :n], boxes[:8],
    epochs=8, lr=1e-3, strategy="delayed", seed=1,
)
print(f"training loss: {result.losses[0]:.2f} -> {result.losses[-1]:.2f}")

mask_acc, mean_iou = evaluate_detector(
    net, clouds[8:, :n], masks[8:, :n], boxes[8:], strategy="delayed"
)
print(f"held-out mask accuracy: {mask_acc:.2f}")
print(f"held-out mean BEV IoU:  {mean_iou:.3f}")

# Inspect one prediction in detail.
from repro.neural import no_grad

with no_grad():
    out = net(clouds[8, :n], strategy="delayed")
pred_box = out["box"].data[0, :7]
print("\nsample box (center/size/heading):")
print(f"  predicted: {np.round(pred_box, 2)}")
print(f"  truth:     {np.round(boxes[8], 2)}")
print(f"  BEV IoU:   {bev_iou(pred_box, boxes[8]):.3f}")
