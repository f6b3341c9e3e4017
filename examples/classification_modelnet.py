"""Object classification with PointNet++ under delayed-aggregation.

Trains a scaled-down PointNet++ (c) on the synthetic ModelNet-like
dataset under both execution strategies and verifies the Fig 16 claim:
delayed-aggregation trains to the same accuracy regime as the original
algorithm.

Run:  python examples/classification_modelnet.py
"""

import numpy as np

from repro.data import SyntheticModelNet
from repro.networks import (
    build_network,
    evaluate_classifier,
    train_classifier,
)

# 64-point clouds, 16 training clouds and 3 epochs keep both runs to a
# few seconds; the loss still halves and train accuracy clears chance.
SCALE = 0.0625
NUM_CLASSES = 4
EPOCHS = 3

dataset = SyntheticModelNet(
    num_classes=NUM_CLASSES, n_points=256, train_per_class=4,
    test_per_class=2, seed=0, rotate=False,
)
print(f"dataset: {len(dataset.train_clouds)} train / "
      f"{len(dataset.test_clouds)} test clouds, classes: "
      f"{dataset.class_names[:NUM_CLASSES]}")

for strategy in ("original", "delayed"):
    net = build_network(
        "PointNet++ (c)", num_classes=NUM_CLASSES, scale=SCALE,
        rng=np.random.default_rng(0),
    )
    n = net.n_points
    result = train_classifier(
        net, dataset.train_clouds[:, :n], dataset.train_labels,
        epochs=EPOCHS, lr=1e-3, strategy=strategy, seed=1,
    )
    train_acc = evaluate_classifier(
        net, dataset.train_clouds[:, :n], dataset.train_labels,
        strategy=strategy,
    )
    test_acc = evaluate_classifier(
        net, dataset.test_clouds[:, :n], dataset.test_labels,
        strategy=strategy,
    )
    print(f"{strategy:9s}: loss {result.losses[0]:.2f} -> "
          f"{result.losses[-1]:.2f}, train acc {train_acc:.2f}, "
          f"test acc {test_acc:.2f}")
