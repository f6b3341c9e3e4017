"""DGCNN [53] — dynamic graph CNN, classification (c) and segmentation (s).

DGCNN's EdgeConv modules keep the full point count (Nout == Nin) and —
unlike PointNet++ — build each module's neighborhood graph in the
*feature space* of the previous module (§V-A: "the neighbor search in
module i searches in the output feature space of module i-1"), which is
why neighbor search dominates DGCNN's runtime (Fig 5) and why the
current module's output must round-trip through memory to the GPU.

Following the paper's abstraction (Fig 2b), each EdgeConv aggregates
neighbor-minus-centroid offsets; the classification variant has a
single MLP layer per module (§VII-C).
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec, PointCloudModule
from ..neural import SharedMLP
from .base import PointCloudNetwork, scale_spec

__all__ = ["DGCNNClassification", "DGCNNSegmentation"]


_CLS_SPECS = (
    ModuleSpec("ec1", n_in=1024, n_out=1024, k=20, mlp_dims=(3, 64),
               search_space="coords"),
    ModuleSpec("ec2", n_in=1024, n_out=1024, k=20, mlp_dims=(64, 64),
               search_space="features"),
    ModuleSpec("ec3", n_in=1024, n_out=1024, k=20, mlp_dims=(64, 128),
               search_space="features"),
    ModuleSpec("ec4", n_in=1024, n_out=1024, k=20, mlp_dims=(128, 256),
               search_space="features"),
)

_SEG_SPECS = (
    ModuleSpec("ec1", n_in=2048, n_out=2048, k=20, mlp_dims=(3, 64, 64),
               search_space="coords"),
    ModuleSpec("ec2", n_in=2048, n_out=2048, k=20, mlp_dims=(64, 64, 64),
               search_space="features"),
    ModuleSpec("ec3", n_in=2048, n_out=2048, k=20, mlp_dims=(64, 64),
               search_space="features"),
)


class DGCNNClassification(PointCloudNetwork):
    """DGCNN (c): four EdgeConvs, skip concat, global embedding, FC head."""

    name = "DGCNN (c)"
    task = "classification"
    dataset = "ModelNet40"
    year = 2019
    paper_n_points = 1024

    def __init__(self, num_classes=40, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        specs = [scale_spec(s, scale) for s in _CLS_SPECS]
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.num_classes = num_classes
        skip_dim = sum(s.out_dim for s in specs)  # 64+64+128+256 = 512
        self.embed = SharedMLP([skip_dim, 1024], rng=rng)
        self.head = SharedMLP([1024, 512, 256, num_classes],
                              final_activation=False, rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        skips = []
        for module in self.encoder:
            coords, feats = nb.module(module, coords, feats)
            skips.append(feats)
        n = self.n_points
        stacked = nb.concat(skips, rows=n, dim=self.embed.dims[0],
                            label="skip")                  # (nclouds * n, 512)
        embedded = nb.head(self.embed, stacked, rows=n,
                           label="embed")                  # (nclouds * n, 1024)
        pooled = nb.global_max(embedded, k=n, dim=self.embed.dims[-1],
                               label="embed")              # (nclouds, 1024)
        nb.output(nb.head(self.head, pooled, rows=1))


class DGCNNSegmentation(PointCloudNetwork):
    """DGCNN (s): three EdgeConvs, global embedding broadcast to points."""

    name = "DGCNN (s)"
    task = "segmentation"
    dataset = "ShapeNet"
    year = 2019
    paper_n_points = 2048

    def __init__(self, num_classes=50, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        specs = [scale_spec(s, scale) for s in _SEG_SPECS]
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.num_classes = num_classes
        skip_dim = sum(s.out_dim for s in specs)  # 64+64+64 = 192
        self.embed = SharedMLP([skip_dim, 1024], rng=rng)
        self.head = SharedMLP([1024 + skip_dim, 256, 256, 128, num_classes],
                              final_activation=False, rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        skips = []
        for module in self.encoder:
            coords, feats = nb.module(module, coords, feats)
            skips.append(feats)
        n = self.n_points
        stacked = nb.concat(skips, rows=n, dim=self.embed.dims[0],
                            label="skip")                  # (nclouds * n, 192)
        embedded = nb.head(self.embed, stacked, rows=n, label="embed")
        pooled = nb.global_max(embedded, k=n, dim=self.embed.dims[-1],
                               label="embed")              # (nclouds, 1024)
        broadcast = nb.broadcast(pooled, rows=n)           # (nclouds * n, 1024)
        fused = nb.concat([broadcast, stacked], rows=n, dim=self.head.dims[0],
                          label="fuse")
        logits = nb.head(self.head, fused, rows=n)  # (nclouds * n, classes)
        nb.output(logits, per_point=True)
