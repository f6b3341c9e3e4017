"""F-PointNet [41] — frustum-based 3D object detection on KITTI.

F-PointNet lifts a 2D detection to a 3D frustum of points, segments the
object points inside the frustum, and regresses an amodal 3D box from
the segmented points.  The paper profiles the point cloud backbone; the
neighbor searches "return mostly 128 neighbors" (§VII-D), which makes
F-PointNet the stress case for the aggregation unit's bank conflicts.

Our reproduction implements both stages (instance segmentation +
box estimation) on PointNet++-style set-abstraction backbones.
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec, PointCloudModule
from ..neural import SharedMLP
from .base import PointCloudNetwork, scale_spec

__all__ = ["FPointNet"]


_SEG_SPECS = (
    ModuleSpec("seg_sa1", n_in=1024, n_out=128, k=128, mlp_dims=(3, 64, 64, 128)),
    ModuleSpec("seg_sa2", n_in=128, n_out=32, k=64, mlp_dims=(128, 128, 128, 256)),
    ModuleSpec("seg_sa3", n_in=32, n_out=1, k=32, mlp_dims=(256, 256, 512, 1024)),
)

_BOX_SPECS = (
    ModuleSpec("box_sa1", n_in=512, n_out=128, k=128, mlp_dims=(3, 128, 128, 256)),
    ModuleSpec("box_sa2", n_in=128, n_out=1, k=128, mlp_dims=(256, 256, 512)),
)

#: Box regression output: center (3) + size (3) + heading (1).
BOX_DIM = 7


class FPointNet(PointCloudNetwork):
    """F-PointNet: frustum segmentation + amodal box regression."""

    name = "F-PointNet"
    task = "detection"
    dataset = "KITTI"
    year = 2018
    paper_n_points = 1024

    def __init__(self, num_classes=3, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        seg_specs = [scale_spec(s, scale) for s in _SEG_SPECS]
        box_specs = [scale_spec(s, scale) for s in _BOX_SPECS]
        modules = [PointCloudModule(s, rng=rng) for s in seg_specs]
        super().__init__(modules)
        self.num_classes = num_classes
        self.fp3 = SharedMLP([1024 + 256, 256, 256], rng=rng)
        self.fp2 = SharedMLP([256 + 128, 256, 128], rng=rng)
        self.fp1 = SharedMLP([128 + 3, 128, 128], rng=rng)
        self.mask_head = SharedMLP([128, 64, 2],
                                   final_activation=False, rng=rng)
        self.box_encoder = [PointCloudModule(s, rng=rng) for s in box_specs]
        self.box_head = SharedMLP([512, 256, BOX_DIM + num_classes],
                                  final_activation=False, rng=rng)
        self._box_n_in = box_specs[0].n_in

    def _build_graph(self, nb):
        # Stage 1: instance segmentation over the frustum.
        coords, feats = nb.input()
        levels = nb.encoder(self.encoder, coords, feats)
        (c0, f0), (c1, f1), (c2, f2), (c3, f3) = levels
        up2 = nb.propagate(self.fp3, "seg_fp3", c2, f2, c3, f3)
        up1 = nb.propagate(self.fp2, "seg_fp2", c1, f1, c2, up2)
        up0 = nb.propagate(self.fp1, "seg_fp1", c0, f0, c1, up1)
        mask_logits = nb.head(self.mask_head, up0,
                              rows=self.n_points)  # (nclouds * n_points, 2)

        # Stage 2: box estimation over the points ranked most likely to
        # be on the object (differentiable selection is avoided, as in
        # the original: the mask stage is trained with its own loss).
        # The select node ranks per cloud and applies the mask-centroid
        # shift; the box encoder is a second module chain seeded from
        # the selected coordinates.
        box_coords = nb.select(coords, mask_logits, self._box_n_in)
        box_feats = nb.lift(box_coords)
        for module in self.box_encoder:
            box_coords, box_feats = nb.module(module, box_coords, box_feats)
        box_out = nb.head(self.box_head, box_feats,
                          rows=1)  # (nclouds, BOX_DIM + classes)

        nb.output(mask_logits, name="mask_logits", per_point=True)
        nb.output(box_out, name="box")
