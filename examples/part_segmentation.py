"""Part segmentation with DGCNN on the synthetic ShapeNet stand-in.

Trains the segmentation variant of DGCNN (EdgeConv encoder + global
embedding broadcast) with delayed-aggregation and reports mean IoU —
the paper's ShapeNet metric.

Run:  python examples/part_segmentation.py
"""

import numpy as np

from repro.data import SyntheticShapeNet
from repro.networks import build_network, evaluate_segmenter, train_segmenter

dataset = SyntheticShapeNet(
    categories=("table", "lamp"), n_points=256, train_per_category=6,
    test_per_category=2, seed=0, rotate=False,
)
print(f"categories: {dataset.categories[:2]}, "
      f"{dataset.num_classes} part classes, "
      f"{len(dataset.train_clouds)} train objects")

net = build_network(
    "DGCNN (s)", num_classes=dataset.num_classes, scale=0.0625,
    rng=np.random.default_rng(0),
)
n = net.n_points
result = train_segmenter(
    net, dataset.train_clouds[:, :n], dataset.train_labels[:, :n],
    epochs=8, lr=1e-3, strategy="delayed", seed=1,
)
print(f"training loss: {result.losses[0]:.2f} -> {result.losses[-1]:.2f}")

for split, clouds, labels in (
    ("train", dataset.train_clouds, dataset.train_labels),
    ("test", dataset.test_clouds, dataset.test_labels),
):
    miou = evaluate_segmenter(
        net, clouds[:, :n], labels[:, :n], dataset.num_classes,
        strategy="delayed",
    )
    print(f"{split} mIoU: {miou:.3f}")

# Per-point predictions for one object, summarized per part.
from repro.neural import no_grad

with no_grad():
    logits = net(dataset.test_clouds[0, :n], strategy="delayed")
pred = logits.data.argmax(axis=1)
true = dataset.test_labels[0, :n]
for part in np.unique(true):
    hit = (pred[true == part] == part).mean()
    print(f"  part {part}: per-point accuracy {hit:.2f}")
