"""Synthetic stand-in for ModelNet40 (object classification).

ModelNet40 is not redistributable offline, so we generate a
deterministic classification dataset from the parametric shape samplers.
Classes beyond the ten base shapes are parameter variants (squashed
tori, tall cylinders, ...), which keeps inter-class similarity — and
therefore task difficulty — non-trivial, the property the Fig 16
accuracy comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .shapes import SHAPE_SAMPLERS, augment, normalize_cloud

__all__ = ["SyntheticModelNet", "make_class_generators"]


def make_class_generators(num_classes):
    """Return ``num_classes`` named samplers, extending base shapes with
    parameter variants."""
    base = list(SHAPE_SAMPLERS.items())
    variants = [
        ("torus_thin", partial(SHAPE_SAMPLERS["torus"], minor=0.15)),
        ("torus_fat", partial(SHAPE_SAMPLERS["torus"], minor=0.6)),
        ("cylinder_tall", partial(SHAPE_SAMPLERS["cylinder"], height=4.0, radius=0.4)),
        ("cylinder_flat", partial(SHAPE_SAMPLERS["cylinder"], height=0.4, radius=1.2)),
        ("cone_sharp", partial(SHAPE_SAMPLERS["cone"], height=3.0, radius=0.5)),
        ("cone_flat", partial(SHAPE_SAMPLERS["cone"], height=0.8, radius=1.5)),
        ("ellipsoid_cigar", partial(SHAPE_SAMPLERS["ellipsoid"], radii=(1.0, 0.25, 0.25))),
        ("ellipsoid_disc", partial(SHAPE_SAMPLERS["ellipsoid"], radii=(1.0, 1.0, 0.2))),
        ("helix_tight", partial(SHAPE_SAMPLERS["helix"], turns=6.0, radius=0.5)),
        ("helix_loose", partial(SHAPE_SAMPLERS["helix"], turns=1.5, radius=1.0)),
        ("cross_wide", partial(SHAPE_SAMPLERS["cross"], width=0.5)),
        ("pyramid_tall", partial(SHAPE_SAMPLERS["pyramid"], height=3.0, base=0.6)),
        ("cube_like", partial(SHAPE_SAMPLERS["ellipsoid"], radii=(0.9, 0.9, 0.9))),
        ("plane_narrow", partial(SHAPE_SAMPLERS["plane"], extent=0.4)),
    ] * 3  # cycle variants with different seeds downstream if needed
    pool = base + variants
    if num_classes > len(pool):
        raise ValueError(f"at most {len(pool)} classes available")
    return pool[:num_classes]


@dataclass
class SyntheticModelNet:
    """Deterministic synthetic classification dataset.

    Attributes mirror a typical dataset object: ``train_clouds``,
    ``train_labels``, ``test_clouds``, ``test_labels``.
    """

    num_classes: int = 10
    n_points: int = 128
    train_per_class: int = 8
    test_per_class: int = 2
    seed: int = 0
    jitter: float = 0.02
    #: Random rotations make the task rotation-invariant but demand far
    #: more training data; disable for the toy-scale accuracy runs.
    rotate: bool = True

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        generators = make_class_generators(self.num_classes)
        train_c, train_y, test_c, test_y = [], [], [], []
        for label, (_, sampler) in enumerate(generators):
            total = self.train_per_class + self.test_per_class
            for i in range(total):
                pts = sampler(self.n_points, rng)
                pts = normalize_cloud(
                    augment(pts, rng, jitter=self.jitter, rotate=self.rotate)
                )
                if i < self.train_per_class:
                    train_c.append(pts)
                    train_y.append(label)
                else:
                    test_c.append(pts)
                    test_y.append(label)
        empty = np.zeros((0, self.n_points, 3))
        self.train_clouds = np.stack(train_c) if train_c else empty
        self.train_labels = np.array(train_y, dtype=int)
        self.test_clouds = np.stack(test_c) if test_c else empty
        self.test_labels = np.array(test_y, dtype=int)
        self.class_names = [name for name, _ in generators]

    def __len__(self):
        return len(self.train_clouds) + len(self.test_clouds)
