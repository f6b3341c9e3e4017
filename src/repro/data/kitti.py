"""Synthetic stand-in for KITTI frustum detection scenes.

:class:`SyntheticFrustum` generates per-frustum point clouds (object
cluster + ground + clutter) with per-point masks and an amodal 3D box
label, the F-PointNet training/eval workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticFrustum", "box_corners_bev", "bev_iou"]

#: Car-like size priors (length, width, height) and their spread.
_CAR_SIZE = np.array([3.9, 1.6, 1.5])
_SIZE_SPREAD = np.array([0.4, 0.15, 0.1])


def _sample_box_surface(n, size, rng):
    """Points on the visible surfaces of an axis-aligned box."""
    # LiDAR sees roughly 2-3 faces; sample 3 faces facing the sensor.
    face = rng.integers(0, 3, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    l, w, h = size
    front = face == 0   # x = -l/2 (facing sensor at -x)
    side = face == 1    # y = -w/2
    top = face == 2     # z = +h/2
    pts[front] = np.column_stack(
        [np.full(front.sum(), -0.5), uv[front, 0], uv[front, 1]]
    ) * size
    pts[side] = np.column_stack(
        [uv[side, 0], np.full(side.sum(), -0.5), uv[side, 1]]
    ) * size
    pts[top] = np.column_stack(
        [uv[top, 0], uv[top, 1], np.full(top.sum(), 0.5)]
    ) * size
    return pts


def _rotz(heading):
    c, s = np.cos(heading), np.sin(heading)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class SyntheticFrustum:
    """F-PointNet-style frustum dataset.

    Each sample: (n_points, 3) cloud, (n_points,) object mask, and a
    7-vector box label (center xyz, size lwh, heading).
    """

    n_samples: int = 16
    n_points: int = 256
    object_fraction: float = 0.4
    seed: int = 0

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        clouds, masks, boxes = [], [], []
        for _ in range(self.n_samples):
            cloud, mask, box = self._make_sample(rng)
            clouds.append(cloud)
            masks.append(mask)
            boxes.append(box)
        self.clouds = np.stack(clouds)
        self.masks = np.stack(masks)
        self.boxes = np.stack(boxes)

    def _make_sample(self, rng):
        n_obj = int(self.n_points * self.object_fraction)
        n_ground = (self.n_points - n_obj) // 2
        n_clutter = self.n_points - n_obj - n_ground

        size = _CAR_SIZE + rng.normal(scale=_SIZE_SPREAD)
        heading = rng.uniform(-np.pi, np.pi)
        center = np.array(
            [rng.uniform(8.0, 30.0), rng.uniform(-4.0, 4.0), size[2] / 2]
        )
        obj = _sample_box_surface(n_obj, size, rng) @ _rotz(heading).T + center
        obj += rng.normal(scale=0.03, size=obj.shape)

        depth = rng.uniform(6.0, 34.0, size=n_ground)
        lateral = rng.uniform(-5.0, 5.0, size=n_ground)
        ground = np.column_stack(
            [depth, lateral, rng.normal(scale=0.05, size=n_ground)]
        )

        clutter = np.column_stack(
            [rng.uniform(6.0, 34.0, size=n_clutter),
             rng.uniform(-5.0, 5.0, size=n_clutter),
             rng.uniform(0.0, 3.0, size=n_clutter)]
        )

        cloud = np.vstack([obj, ground, clutter])
        mask = np.concatenate(
            [np.ones(n_obj, dtype=int), np.zeros(n_ground + n_clutter, dtype=int)]
        )
        order = rng.permutation(self.n_points)
        box = np.concatenate([center, size, [heading]])
        return cloud[order], mask[order], box

    def normalized(self):
        """Clouds centered on their centroid (what the network consumes),
        with box centers shifted accordingly."""
        centers = self.clouds.mean(axis=1, keepdims=True)
        clouds = self.clouds - centers
        boxes = self.boxes.copy()
        boxes[:, :3] -= centers[:, 0, :]
        return clouds, self.masks, boxes


def box_corners_bev(box):
    """BEV (x, y) corners of a 7-dof box (center, size, heading)."""
    cx, cy = box[0], box[1]
    l, w = box[3], box[4]
    heading = box[6]
    corners = np.array(
        [[l / 2, w / 2], [l / 2, -w / 2], [-l / 2, -w / 2], [-l / 2, w / 2]]
    )
    c, s = np.cos(heading), np.sin(heading)
    rot = np.array([[c, -s], [s, c]])
    return corners @ rot.T + np.array([cx, cy])


def bev_iou(box_a, box_b, resolution=0.05):
    """Approximate bird's-eye-view IoU by rasterizing both boxes.

    The paper reports IoU (BEV) on KITTI; a rasterized IoU is accurate
    to the grid resolution and avoids a polygon-clipping dependency.
    """
    ca = box_corners_bev(box_a)
    cb = box_corners_bev(box_b)
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0)) - resolution
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0)) + resolution
    xs = np.arange(lo[0], hi[0], resolution)
    ys = np.arange(lo[1], hi[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])

    def inside(corners):
        mask = np.ones(len(grid), dtype=bool)
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            edge = b - a
            # Corners are wound clockwise; the inward normal is
            # (edge_y, -edge_x).
            normal = np.array([edge[1], -edge[0]])
            mask &= (grid - a) @ normal >= 0
        return mask

    in_a, in_b = inside(ca), inside(cb)
    union = (in_a | in_b).sum()
    if union == 0:
        return 0.0
    return float((in_a & in_b).sum() / union)
