"""Parametric 3-D shape samplers.

These are the geometric primitives underlying the synthetic datasets
that replace ModelNet40 / ShapeNet / KITTI (see DESIGN.md).  Each
sampler returns (n, 3) points on the surface of a canonical shape;
:func:`augment` applies the random rotation/scale/jitter that makes the
classification task non-trivial.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_sphere",
    "sample_cube",
    "sample_cylinder",
    "sample_cone",
    "sample_torus",
    "sample_plane",
    "sample_pyramid",
    "sample_helix",
    "sample_ellipsoid",
    "sample_cross",
    "SHAPE_SAMPLERS",
    "random_rotation",
    "augment",
    "normalize_cloud",
    "morton_order",
]


def sample_sphere(n, rng):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_ellipsoid(n, rng, radii=(1.0, 0.6, 0.4)):
    return sample_sphere(n, rng) * np.asarray(radii)


def sample_cube(n, rng):
    """Uniform samples on the surface of the unit cube."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face % 3
    sign = np.where(face < 3, 1.0, -1.0)
    for i in range(n):
        a = axis[i]
        others = [d for d in range(3) if d != a]
        pts[i, a] = sign[i]
        pts[i, others[0]] = uv[i, 0]
        pts[i, others[1]] = uv[i, 1]
    return pts


def sample_cylinder(n, rng, height=2.0, radius=0.7):
    theta = rng.uniform(0, 2 * np.pi, size=n)
    z = rng.uniform(-height / 2, height / 2, size=n)
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def sample_cone(n, rng, height=2.0, radius=1.0):
    # Area-weighted sampling along the slant.
    u = np.sqrt(rng.uniform(0, 1, size=n))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    r = radius * u
    z = height * (1 - u) - height / 2
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def sample_torus(n, rng, major=1.0, minor=0.35):
    u = rng.uniform(0, 2 * np.pi, size=n)
    v = rng.uniform(0, 2 * np.pi, size=n)
    x = (major + minor * np.cos(v)) * np.cos(u)
    y = (major + minor * np.cos(v)) * np.sin(u)
    z = minor * np.sin(v)
    return np.column_stack([x, y, z])


def sample_plane(n, rng, extent=1.0):
    xy = rng.uniform(-extent, extent, size=(n, 2))
    return np.column_stack([xy, np.zeros(n)])


def sample_pyramid(n, rng, height=1.5, base=1.0):
    """Points on the four triangular faces of a square pyramid."""
    apex = np.array([0.0, 0.0, height / 2])
    corners = np.array(
        [[-base, -base, -height / 2], [base, -base, -height / 2],
         [base, base, -height / 2], [-base, base, -height / 2]]
    )
    face = rng.integers(0, 4, size=n)
    u = rng.uniform(0, 1, size=n)
    v = rng.uniform(0, 1, size=n)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    a = corners[face]
    b = corners[(face + 1) % 4]
    return a + u[:, None] * (b - a) + v[:, None] * (apex - a)


def sample_helix(n, rng, turns=3.0, radius=0.8, height=2.0, thickness=0.08):
    t = rng.uniform(0, 1, size=n)
    angle = 2 * np.pi * turns * t
    core = np.column_stack(
        [radius * np.cos(angle), radius * np.sin(angle), height * (t - 0.5)]
    )
    return core + rng.normal(scale=thickness, size=(n, 3))


def sample_cross(n, rng, arm=1.0, width=0.25):
    """Two orthogonal bars — a shape with sharp concavities."""
    bar = rng.integers(0, 2, size=n)
    major = rng.uniform(-arm, arm, size=n)
    minor = rng.uniform(-width, width, size=(n, 2))
    pts = np.empty((n, 3))
    pts[bar == 0] = np.column_stack(
        [major[bar == 0], minor[bar == 0, 0], minor[bar == 0, 1]]
    )
    pts[bar == 1] = np.column_stack(
        [minor[bar == 1, 0], major[bar == 1], minor[bar == 1, 1]]
    )
    return pts


SHAPE_SAMPLERS = {
    "sphere": sample_sphere,
    "cube": sample_cube,
    "cylinder": sample_cylinder,
    "cone": sample_cone,
    "torus": sample_torus,
    "plane": sample_plane,
    "pyramid": sample_pyramid,
    "helix": sample_helix,
    "ellipsoid": sample_ellipsoid,
    "cross": sample_cross,
}


def random_rotation(rng):
    """A uniformly random rotation matrix (QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def normalize_cloud(points):
    """Center on the centroid and scale into the unit sphere."""
    points = np.asarray(points, dtype=np.float64)
    centered = points - points.mean(axis=0)
    scale = np.linalg.norm(centered, axis=1).max()
    if scale > 0:
        centered = centered / scale
    return centered


def morton_order(points, bits=10):
    """Scan order: the permutation sorting points along a Morton curve.

    Real point cloud files (ModelNet/ShapeNet/KITTI sweeps) store points
    in scan order, so spatial neighbors have nearby indices — the
    property that makes the AU's LSB bank interleaving effective
    (§V-B).  Synthetic clouds must reproduce it or bank conflicts are
    badly overestimated.
    """
    pts = np.asarray(points)
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-9)
    q = np.minimum(((pts - lo) / span * (2 ** bits - 1)).astype(np.uint64),
                   2 ** bits - 1)
    code = np.zeros(len(pts), dtype=np.uint64)
    for b in range(bits):
        for axis in range(3):
            code |= ((q[:, axis] >> np.uint64(b)) & np.uint64(1)) \
                << np.uint64(3 * b + axis)
    return np.argsort(code, kind="stable")


def augment(points, rng, jitter=0.02, scale_range=(0.8, 1.2), rotate=True):
    """Random rotation + anisotropic scale + Gaussian jitter."""
    out = np.asarray(points, dtype=np.float64)
    if rotate:
        out = out @ random_rotation(rng).T
    out = out * rng.uniform(*scale_range, size=3)
    if jitter:
        out = out + rng.normal(scale=jitter, size=out.shape)
    return out
