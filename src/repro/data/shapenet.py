"""Synthetic stand-in for ShapeNet part segmentation.

Objects are composed from labelled parts (a "table" is a plane plus
four cylinder legs, ...), giving per-point part labels analogous to
ShapeNet's.  The mIoU metric over these labels is what the Fig 16
segmentation accuracy comparison uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shapes import (
    augment,
    normalize_cloud,
    sample_cone,
    sample_cylinder,
    sample_ellipsoid,
    sample_plane,
)

__all__ = ["SyntheticShapeNet", "CATEGORY_BUILDERS"]


def _table(n, rng):
    """Plane top + 4 cylinder legs.  Parts: 0=top, 1=legs."""
    n_top = n // 2
    n_leg = (n - n_top) // 4
    pts, labels = [], []
    top = sample_plane(n_top, rng, extent=1.0)
    top[:, 2] += 1.0
    pts.append(top)
    labels.append(np.zeros(n_top, dtype=int))
    for sx in (-0.8, 0.8):
        for sy in (-0.8, 0.8):
            leg = sample_cylinder(n_leg, rng, height=2.0, radius=0.08)
            leg[:, 0] += sx
            leg[:, 1] += sy
            pts.append(leg)
            labels.append(np.ones(n_leg, dtype=int))
    return np.vstack(pts), np.concatenate(labels)


def _lamp(n, rng):
    """Base disc + pole + cone shade.  Parts: 0=base, 1=pole, 2=shade."""
    n_base, n_pole = n // 4, n // 4
    n_shade = n - n_base - n_pole
    base = sample_plane(n_base, rng, extent=0.5)
    base[:, 2] -= 1.0
    pole = sample_cylinder(n_pole, rng, height=2.0, radius=0.05)
    shade = sample_cone(n_shade, rng, height=0.8, radius=0.6)
    shade[:, 2] += 1.2
    pts = np.vstack([base, pole, shade])
    labels = np.concatenate(
        [np.zeros(n_base, dtype=int), np.ones(n_pole, dtype=int),
         np.full(n_shade, 2, dtype=int)]
    )
    return pts, labels


def _airplane(n, rng):
    """Body ellipsoid + wing plane + tail.  Parts: 0=body, 1=wings, 2=tail."""
    n_body = n // 2
    n_wing = n // 3
    n_tail = n - n_body - n_wing
    body = sample_ellipsoid(n_body, rng, radii=(1.2, 0.25, 0.25))
    wings = sample_plane(n_wing, rng, extent=1.0)
    wings[:, 1] *= 1.4
    wings[:, 0] *= 0.25
    tail = sample_plane(n_tail, rng, extent=0.3)
    tail = tail[:, [0, 2, 1]]  # vertical fin
    tail[:, 0] -= 1.0
    tail[:, 2] += 0.3
    pts = np.vstack([body, wings, tail])
    labels = np.concatenate(
        [np.zeros(n_body, dtype=int), np.ones(n_wing, dtype=int),
         np.full(n_tail, 2, dtype=int)]
    )
    return pts, labels


def _mug(n, rng):
    """Cylinder body + torus-arc handle.  Parts: 0=body, 1=handle."""
    n_body = (3 * n) // 4
    n_handle = n - n_body
    body = sample_cylinder(n_body, rng, height=1.2, radius=0.5)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=n_handle)
    v = rng.uniform(0, 2 * np.pi, size=n_handle)
    handle = np.column_stack(
        [0.5 + (0.35 + 0.05 * np.cos(v)) * np.cos(u) * 0 + 0.5,
         (0.35 + 0.05 * np.cos(v)) * np.cos(u),
         (0.35 + 0.05 * np.cos(v)) * np.sin(u)]
    )
    handle[:, 0] = 0.55 + 0.05 * np.sin(v)
    pts = np.vstack([body, handle])
    labels = np.concatenate(
        [np.zeros(n_body, dtype=int), np.ones(n_handle, dtype=int)]
    )
    return pts, labels


def _rocket(n, rng):
    """Cylinder body + cone nose + fins.  Parts: 0=body, 1=nose, 2=fins."""
    n_body = n // 2
    n_nose = n // 4
    n_fins = n - n_body - n_nose
    body = sample_cylinder(n_body, rng, height=2.0, radius=0.3)
    nose = sample_cone(n_nose, rng, height=0.8, radius=0.3)
    nose[:, 2] += 1.4
    fins = sample_plane(n_fins, rng, extent=0.35)
    fins = fins[:, [0, 2, 1]]
    fins[:, 2] -= 1.0
    pts = np.vstack([body, nose, fins])
    labels = np.concatenate(
        [np.zeros(n_body, dtype=int), np.ones(n_nose, dtype=int),
         np.full(n_fins, 2, dtype=int)]
    )
    return pts, labels


#: category name -> (builder, number of parts)
CATEGORY_BUILDERS = {
    "table": (_table, 2),
    "lamp": (_lamp, 3),
    "airplane": (_airplane, 3),
    "mug": (_mug, 2),
    "rocket": (_rocket, 3),
}


@dataclass
class SyntheticShapeNet:
    """Part-segmentation dataset with global (category-offset) labels."""

    categories: tuple = tuple(CATEGORY_BUILDERS)
    n_points: int = 256
    train_per_category: int = 8
    test_per_category: int = 2
    seed: int = 0
    rotate: bool = True

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        offsets = {}
        offset = 0
        for c in self.categories:
            offsets[c] = offset
            offset += CATEGORY_BUILDERS[c][1]
        self.num_classes = offset
        train_c, train_y, test_c, test_y = [], [], [], []
        for c in self.categories:
            builder, _ = CATEGORY_BUILDERS[c]
            total = self.train_per_category + self.test_per_category
            for i in range(total):
                pts, labels = builder(self.n_points, rng)
                # Augment with a *shared* transform so labels stay valid.
                pts = normalize_cloud(
                    augment(pts, rng, jitter=0.01, rotate=self.rotate)
                )
                labels = labels + offsets[c]
                if i < self.train_per_category:
                    train_c.append(pts)
                    train_y.append(labels)
                else:
                    test_c.append(pts)
                    test_y.append(labels)
        self.train_clouds = np.stack(train_c)
        self.train_labels = np.stack(train_y)
        self.test_clouds = np.stack(test_c)
        self.test_labels = np.stack(test_y)
        self.part_offsets = offsets
