"""Tests for the synthetic datasets and metrics."""

import numpy as np
import pytest

from repro.data import (
    CATEGORY_BUILDERS,
    SHAPE_SAMPLERS,
    SyntheticFrustum,
    SyntheticModelNet,
    SyntheticShapeNet,
    augment,
    bev_iou,
    box_corners_bev,
    confusion_matrix,
    mean_iou,
    normalize_cloud,
    overall_accuracy,
    random_rotation,
)


class TestShapes:
    @pytest.mark.parametrize("name", list(SHAPE_SAMPLERS))
    def test_sampler_shapes(self, name):
        pts = SHAPE_SAMPLERS[name](100, np.random.default_rng(0))
        assert pts.shape == (100, 3)
        assert np.isfinite(pts).all()

    def test_sphere_on_unit_surface(self):
        pts = SHAPE_SAMPLERS["sphere"](500, np.random.default_rng(1))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-9)

    def test_plane_is_flat(self):
        pts = SHAPE_SAMPLERS["plane"](100, np.random.default_rng(2))
        np.testing.assert_allclose(pts[:, 2], 0.0)

    def test_cube_on_surface(self):
        pts = SHAPE_SAMPLERS["cube"](200, np.random.default_rng(3))
        on_face = np.isclose(np.abs(pts), 1.0).any(axis=1)
        assert on_face.all()

    def test_rotation_is_orthonormal(self):
        r = random_rotation(np.random.default_rng(4))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_normalize_cloud(self):
        pts = np.random.default_rng(5).normal(5.0, 3.0, size=(50, 3))
        out = normalize_cloud(pts)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.linalg.norm(out, axis=1).max() == pytest.approx(1.0)

    def test_augment_preserves_shape(self):
        pts = SHAPE_SAMPLERS["torus"](64, np.random.default_rng(6))
        out = augment(pts, np.random.default_rng(7))
        assert out.shape == pts.shape
        assert not np.allclose(out, pts)


class TestModelNet:
    def test_split_sizes(self):
        ds = SyntheticModelNet(num_classes=5, n_points=32, train_per_class=3,
                               test_per_class=2)
        assert ds.train_clouds.shape == (15, 32, 3)
        assert ds.test_clouds.shape == (10, 32, 3)
        assert set(ds.train_labels) == set(range(5))

    def test_deterministic(self):
        a = SyntheticModelNet(num_classes=3, n_points=16, seed=42)
        b = SyntheticModelNet(num_classes=3, n_points=16, seed=42)
        np.testing.assert_allclose(a.train_clouds, b.train_clouds)

    def test_seed_changes_data(self):
        a = SyntheticModelNet(num_classes=3, n_points=16, seed=1)
        b = SyntheticModelNet(num_classes=3, n_points=16, seed=2)
        assert not np.allclose(a.train_clouds, b.train_clouds)

    def test_clouds_normalized(self):
        ds = SyntheticModelNet(num_classes=3, n_points=64)
        norms = np.linalg.norm(ds.train_clouds, axis=2)
        assert norms.max() <= 1.0 + 1e-9

    def test_max_classes(self):
        with pytest.raises(ValueError):
            SyntheticModelNet(num_classes=1000)


class TestShapeNet:
    def test_labels_within_global_space(self):
        ds = SyntheticShapeNet(n_points=64, train_per_category=2,
                               test_per_category=1)
        assert ds.train_labels.max() < ds.num_classes
        assert ds.num_classes == sum(parts for _, parts
                                     in CATEGORY_BUILDERS.values())

    def test_every_category_contributes_parts(self):
        ds = SyntheticShapeNet(n_points=128, train_per_category=1,
                               test_per_category=1)
        for c, offset in ds.part_offsets.items():
            n_parts = CATEGORY_BUILDERS[c][1]
            cat_rows = [
                i for i in range(len(ds.train_labels))
                if offset <= ds.train_labels[i].min()
                and ds.train_labels[i].max() < offset + n_parts
            ]
            assert cat_rows, f"category {c} missing from train split"

    def test_each_sample_multi_part(self):
        ds = SyntheticShapeNet(n_points=128, train_per_category=2,
                               test_per_category=1)
        for labels in ds.train_labels:
            assert len(np.unique(labels)) >= 2

    def test_point_counts(self):
        ds = SyntheticShapeNet(n_points=96, train_per_category=1,
                               test_per_category=1)
        assert ds.train_clouds.shape[1] == 96


class TestFrustum:
    def test_shapes(self):
        ds = SyntheticFrustum(n_samples=4, n_points=128)
        assert ds.clouds.shape == (4, 128, 3)
        assert ds.masks.shape == (4, 128)
        assert ds.boxes.shape == (4, 7)

    def test_object_fraction(self):
        ds = SyntheticFrustum(n_samples=6, n_points=200, object_fraction=0.4)
        frac = ds.masks.mean()
        assert 0.3 < frac < 0.5

    def test_object_points_near_box_center(self):
        ds = SyntheticFrustum(n_samples=3, n_points=256, seed=1)
        for cloud, mask, box in zip(ds.clouds, ds.masks, ds.boxes):
            obj = cloud[mask == 1]
            dist = np.linalg.norm(obj - box[:3], axis=1)
            # All object points lie within the box diagonal.
            assert dist.max() <= np.linalg.norm(box[3:6]) / 2 + 0.5

    def test_normalized_recenters(self):
        ds = SyntheticFrustum(n_samples=2, n_points=64)
        clouds, _, boxes = ds.normalized()
        np.testing.assert_allclose(clouds.mean(axis=1), 0.0, atol=1e-9)


class TestMetrics:
    def test_overall_accuracy(self):
        assert overall_accuracy([1, 2, 3], [1, 2, 0]) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            overall_accuracy([1], [1, 2])

    def test_confusion_matrix(self):
        m = confusion_matrix([0, 1, 1], [0, 1, 0], num_classes=2)
        np.testing.assert_array_equal(m, [[1, 1], [0, 1]])

    def test_miou_perfect(self):
        labels = np.array([0, 1, 2, 2])
        assert mean_iou(labels, labels, 3) == pytest.approx(1.0)

    def test_miou_disjoint(self):
        assert mean_iou(np.array([1, 1]), np.array([0, 0]), 2) == 0.0

    def test_miou_ignores_absent_classes(self):
        # Class 2 never appears in targets; should not drag the mean.
        pred = np.array([0, 1])
        target = np.array([0, 1])
        assert mean_iou(pred, target, 3) == pytest.approx(1.0)


class TestBEVIoU:
    def test_identical_boxes(self):
        box = np.array([0, 0, 0.75, 4.0, 1.6, 1.5, 0.3])
        assert bev_iou(box, box) > 0.97

    def test_disjoint_boxes(self):
        a = np.array([0, 0, 0, 2, 1, 1, 0.0])
        b = np.array([10, 10, 0, 2, 1, 1, 0.0])
        assert bev_iou(a, b) == 0.0

    def test_half_overlap(self):
        a = np.array([0, 0, 0, 2.0, 2.0, 1, 0.0])
        b = np.array([1.0, 0, 0, 2.0, 2.0, 1, 0.0])
        iou = bev_iou(a, b, resolution=0.02)
        assert iou == pytest.approx(1 / 3, abs=0.03)

    def test_rotation_matters(self):
        a = np.array([0, 0, 0, 4.0, 1.0, 1, 0.0])
        b = np.array([0, 0, 0, 4.0, 1.0, 1, np.pi / 2])
        iou = bev_iou(a, b, resolution=0.02)
        assert 0.05 < iou < 0.35

    def test_corners(self):
        box = np.array([1.0, 2.0, 0, 2.0, 1.0, 1, 0.0])
        corners = box_corners_bev(box)
        assert corners.shape == (4, 2)
        np.testing.assert_allclose(corners.mean(axis=0), [1.0, 2.0])
