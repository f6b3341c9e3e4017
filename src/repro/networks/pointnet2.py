"""PointNet++ [43] — classification (c) and segmentation (s) variants.

The configurations follow the single-scale-grouping reference models the
paper characterizes: Fig 3 describes the first module exactly (1024 ->
512 centroids, K=32, MLP [3, 64, 64, 128]).  Both variants support a
``scale`` factor so the same architecture trains at toy scale on the
synthetic datasets.
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec, PointCloudModule
from ..neural import SharedMLP
from .base import PointCloudNetwork, scale_spec

__all__ = ["PointNet2Classification", "PointNet2Segmentation"]


_CLS_SPECS = (
    ModuleSpec("sa1", n_in=1024, n_out=512, k=32, mlp_dims=(3, 64, 64, 128)),
    ModuleSpec("sa2", n_in=512, n_out=128, k=64, mlp_dims=(128, 128, 128, 256)),
    ModuleSpec("sa3", n_in=128, n_out=1, k=128, mlp_dims=(256, 256, 512, 1024)),
)

_SEG_SPECS = (
    ModuleSpec("sa1", n_in=2048, n_out=512, k=32, mlp_dims=(3, 64, 64, 128)),
    ModuleSpec("sa2", n_in=512, n_out=128, k=64, mlp_dims=(128, 128, 128, 256)),
    ModuleSpec("sa3", n_in=128, n_out=1, k=128, mlp_dims=(256, 256, 512, 1024)),
)


class PointNet2Classification(PointCloudNetwork):
    """PointNet++ (c): hierarchical set abstraction + FC classifier."""

    name = "PointNet++ (c)"
    task = "classification"
    dataset = "ModelNet40"
    year = 2017
    paper_n_points = 1024

    def __init__(self, num_classes=40, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        specs = [scale_spec(s, scale) for s in _CLS_SPECS]
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.num_classes = num_classes
        self.head = SharedMLP([1024, 512, 256, num_classes],
                              final_activation=False, rng=rng)

    def _build_graph(self, nb):
        # sa3 reduces every cloud to one centroid, so the flat encoder
        # output is (nclouds, 1024) and the head batches for free.
        coords, feats = nb.input()
        _, feats = nb.encoder(self.encoder, coords, feats)[-1]
        nb.output(nb.head(self.head, feats, rows=1))


class PointNet2Segmentation(PointCloudNetwork):
    """PointNet++ (s): encoder + feature-propagation decoder."""

    name = "PointNet++ (s)"
    task = "segmentation"
    dataset = "ShapeNet"
    year = 2017
    paper_n_points = 2048

    def __init__(self, num_classes=50, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        specs = [scale_spec(s, scale) for s in _SEG_SPECS]
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.num_classes = num_classes
        # Feature-propagation MLPs: FP3 upsamples sa3 output onto sa2
        # centroids, etc. (skip concat).
        self.fp3 = SharedMLP([1024 + 256, 256, 256], rng=rng)
        self.fp2 = SharedMLP([256 + 128, 256, 128], rng=rng)
        self.fp1 = SharedMLP([128 + 3, 128, 128, 128], rng=rng)
        self.head = SharedMLP([128, 128, num_classes],
                              final_activation=False, rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        levels = nb.encoder(self.encoder, coords, feats)
        (c0, f0), (c1, f1), (c2, f2), (c3, f3) = levels
        up2 = nb.propagate(self.fp3, "fp3", c2, f2, c3, f3)
        up1 = nb.propagate(self.fp2, "fp2", c1, f1, c2, up2)
        up0 = nb.propagate(self.fp1, "fp1", c0, f0, c1, up1)
        logits = nb.head(self.head, up0, rows=self.n_points)
        nb.output(logits, per_point=True)
