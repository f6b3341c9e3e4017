"""Integration tests for the training loops (the Fig 16 machinery)."""

import numpy as np
import pytest

from repro.data import SyntheticFrustum, SyntheticModelNet, SyntheticShapeNet
from repro.networks import (
    build_network,
    evaluate_classifier,
    evaluate_detector,
    evaluate_segmenter,
    train_classifier,
    train_detector,
    train_segmenter,
)

SCALE = 0.03125  # 32-point clouds — the smallest viable scale


@pytest.fixture(scope="module")
def cls_data():
    return SyntheticModelNet(num_classes=3, n_points=64, train_per_class=4,
                             test_per_class=2, seed=0, rotate=False)


class TestClassifierTraining:
    def test_loss_decreases(self, cls_data):
        net = build_network("PointNet++ (c)", num_classes=3, scale=SCALE,
                            rng=np.random.default_rng(0))
        n = net.n_points
        result = train_classifier(
            net, cls_data.train_clouds[:, :n], cls_data.train_labels,
            epochs=3, strategy="delayed", seed=1,
        )
        assert result.improved
        assert len(result.losses) == 3

    def test_all_strategies_trainable(self, cls_data):
        for strategy in ("original", "delayed", "limited"):
            net = build_network("DGCNN (c)", num_classes=3, scale=SCALE,
                                rng=np.random.default_rng(0))
            n = net.n_points
            result = train_classifier(
                net, cls_data.train_clouds[:, :n], cls_data.train_labels,
                epochs=2, strategy=strategy, seed=1,
            )
            assert np.isfinite(result.losses).all(), strategy

    def test_evaluation_returns_fraction(self, cls_data):
        net = build_network("PointNet++ (c)", num_classes=3, scale=SCALE,
                            rng=np.random.default_rng(0))
        n = net.n_points
        acc = evaluate_classifier(
            net, cls_data.test_clouds[:, :n], cls_data.test_labels,
            strategy="delayed",
        )
        assert 0.0 <= acc <= 1.0

    def test_evaluation_changes_no_parameter(self, cls_data):
        # No layer has a training-only behavior to switch off, so an
        # evaluation between training runs leaves the network as it was.
        net = build_network("PointNet++ (c)", num_classes=3, scale=SCALE,
                            rng=np.random.default_rng(0))
        n = net.n_points
        before = [p.data.copy() for p in net.parameters()]
        evaluate_classifier(net, cls_data.test_clouds[:, :n],
                            cls_data.test_labels)
        assert all(np.array_equal(a, p.data) and p.grad is None
                   for a, p in zip(before, net.parameters()))


class TestSegmenterTraining:
    def test_loss_decreases(self):
        ds = SyntheticShapeNet(categories=("table",), n_points=64,
                               train_per_category=3, test_per_category=1,
                               seed=0, rotate=False)
        net = build_network("PointNet++ (s)", num_classes=ds.num_classes,
                            scale=SCALE, rng=np.random.default_rng(0))
        n = net.n_points
        result = train_segmenter(
            net, ds.train_clouds[:, :n], ds.train_labels[:, :n],
            epochs=3, strategy="delayed", seed=1,
        )
        assert result.improved
        miou = evaluate_segmenter(
            net, ds.test_clouds[:, :n], ds.test_labels[:, :n],
            ds.num_classes, strategy="delayed",
        )
        assert 0.0 <= miou <= 1.0


class TestDetectorTraining:
    def test_loss_decreases(self):
        ds = SyntheticFrustum(n_samples=4, n_points=128, seed=0)
        clouds, masks, boxes = ds.normalized()
        net = build_network("F-PointNet", scale=0.125,
                            rng=np.random.default_rng(0))
        n = net.n_points
        result = train_detector(net, clouds[:3, :n], masks[:3, :n],
                                boxes[:3], epochs=3, strategy="delayed",
                                seed=1)
        assert result.improved
        mask_acc, mean_iou = evaluate_detector(
            net, clouds[3:, :n], masks[3:, :n], boxes[3:],
            strategy="delayed",
        )
        assert 0.0 <= mask_acc <= 1.0
        assert 0.0 <= mean_iou <= 1.0


class TestTrainResult:
    def test_empty(self):
        from repro.networks import TrainResult

        r = TrainResult()
        assert np.isnan(r.final_loss)
        assert not r.improved

    def test_improved(self):
        from repro.networks import TrainResult

        assert TrainResult(losses=[2.0, 1.0]).improved
        assert not TrainResult(losses=[1.0, 2.0]).improved
