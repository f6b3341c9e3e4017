"""Training loops for the Fig 16 accuracy experiments.

The paper retrains every network with delayed-aggregation from scratch
and shows the accuracy matches the original algorithm (-0.9% to +1.2%).
These loops do the same on the synthetic datasets at reduced scale:
per-cloud Adam over the numpy autograd engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.metrics import mean_iou, overall_accuracy
from ..neural import Adam, cross_entropy, mse_loss, no_grad

__all__ = [
    "TrainResult",
    "train_classifier",
    "evaluate_classifier",
    "train_segmenter",
    "evaluate_segmenter",
    "train_detector",
    "evaluate_detector",
]


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)
    accuracy: float = 0.0

    @property
    def final_loss(self):
        return self.losses[-1] if self.losses else float("nan")

    @property
    def improved(self):
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]


def _fit(net, n, loss_of, epochs, lr, seed):
    """Seeded per-cloud Adam over clouds ``0..n-1``: each epoch visits
    them in a fresh permutation and steps on ``loss_of(i)``."""
    rng = np.random.default_rng(seed)
    opt = Adam(net.parameters(), lr=lr)
    result = TrainResult()
    for _ in range(epochs):
        epoch_loss = 0.0
        for i in rng.permutation(n):
            opt.zero_grad()
            loss = loss_of(i)
            loss.backward()
            opt.step()
            epoch_loss += loss.item()
        result.losses.append(epoch_loss / n)
    return result


def train_classifier(net, clouds, labels, epochs=3, lr=1e-3, strategy="delayed",
                     seed=0):
    """Train a classification network; returns a :class:`TrainResult`."""
    return _fit(net, len(clouds), lambda i: cross_entropy(
        net(clouds[i], strategy=strategy), [labels[i]]), epochs, lr, seed)


def evaluate_classifier(net, clouds, labels, strategy="delayed"):
    """Overall accuracy over a set of clouds."""
    predictions = []
    with no_grad():
        for cloud in clouds:
            logits = net(cloud, strategy=strategy)
            predictions.append(int(logits.data.argmax()))
    return overall_accuracy(np.array(predictions), np.asarray(labels))


def train_segmenter(net, clouds, labels, epochs=3, lr=1e-3, strategy="delayed",
                    seed=0):
    """Train a part-segmentation network (per-point cross-entropy)."""
    return _fit(net, len(clouds), lambda i: cross_entropy(
        net(clouds[i], strategy=strategy), labels[i]), epochs, lr, seed)


def evaluate_segmenter(net, clouds, labels, num_classes, strategy="delayed"):
    """Mean IoU over a set of clouds (the ShapeNet metric)."""
    preds, targets = [], []
    with no_grad():
        for cloud, lab in zip(clouds, labels):
            logits = net(cloud, strategy=strategy)
            preds.append(logits.data.argmax(axis=1))
            targets.append(lab)
    return mean_iou(np.concatenate(preds), np.concatenate(targets), num_classes)


def train_detector(net, clouds, masks, boxes, epochs=3, lr=1e-3,
                   strategy="delayed", seed=0, box_weight=0.1):
    """Train F-PointNet: mask cross-entropy + box regression MSE."""
    box_dim = boxes.shape[1]

    def loss_of(i):
        out = net(clouds[i], strategy=strategy)
        mask_loss = cross_entropy(out["mask_logits"], masks[i])
        box_pred = out["box"][(np.array([0]), np.arange(box_dim))]
        return mask_loss + box_weight * mse_loss(box_pred, boxes[i])

    return _fit(net, len(clouds), loss_of, epochs, lr, seed)


def evaluate_detector(net, clouds, masks, boxes, strategy="delayed"):
    """(mask accuracy, mean BEV IoU) over frustum samples."""
    from ..data.kitti import bev_iou

    mask_hits = []
    ious = []
    box_dim = boxes.shape[1]
    with no_grad():
        for cloud, mask, box in zip(clouds, masks, boxes):
            out = net(cloud, strategy=strategy)
            pred_mask = out["mask_logits"].data.argmax(axis=1)
            mask_hits.append((pred_mask == mask).mean())
            pred_box = out["box"].data[0, :box_dim]
            ious.append(bev_iou(pred_box, box))
    return float(np.mean(mask_hits)), float(np.mean(ious))
