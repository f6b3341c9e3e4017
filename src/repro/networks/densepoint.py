"""DensePoint [34] — densely-connected narrow single-layer modules.

DensePoint alternates pooling modules (which downsample) with dense
blocks of narrow single-layer MLP modules whose inputs concatenate all
previous outputs within the block (growth-rate style).  The exact
reference configuration is larger; this reproduction keeps the defining
properties the paper relies on — one MLP layer per module (§VII-C),
narrow growth channels, and dense intra-block concatenation — at a
comparable operation count.
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec, PointCloudModule
from ..neural import SharedMLP
from .base import PointCloudNetwork, scale_spec

__all__ = ["DensePoint"]

_GROWTH = 24


def _stage_specs():
    """(spec, dense_block_flag) pairs for the paper-scale model."""
    specs = []
    # Pool 1 + dense block at 512 points.
    specs.append((ModuleSpec("pool1", 1024, 512, 16, (3, 48)), False))
    in_dim = 48
    for i in range(3):
        specs.append(
            (ModuleSpec(f"dense1_{i}", 512, 512, 16, (in_dim, _GROWTH)), True)
        )
        in_dim += _GROWTH
    # Pool 2 + dense block at 256 points.
    specs.append((ModuleSpec("pool2", 512, 256, 16, (in_dim, 48)), False))
    in_dim = 48
    for i in range(3):
        specs.append(
            (ModuleSpec(f"dense2_{i}", 256, 256, 16, (in_dim, _GROWTH)), True)
        )
        in_dim += _GROWTH
    # Global module.
    specs.append((ModuleSpec("global", 256, 1, 256, (in_dim, 512)), False))
    return specs


class DensePoint(PointCloudNetwork):
    """DensePoint: pooling + dense blocks + global module + FC head."""

    name = "DensePoint"
    task = "classification"
    dataset = "ModelNet40"
    year = 2019
    paper_n_points = 1024

    def __init__(self, num_classes=40, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        staged = _stage_specs()
        specs = [scale_spec(s, scale) for s, _ in staged]
        self._dense_flags = [flag for _, flag in staged]
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.num_classes = num_classes
        self.head = SharedMLP([512, 256, 128, num_classes],
                              final_activation=False, rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        block = []  # features accumulated in the current dense block
        for module, dense in zip(self.encoder, self._dense_flags):
            if len(block) > 1:
                # Dense intra-block concats execute but were never part
                # of the analytic emission; they stay untraced.
                module_in = nb.concat(block, rows=module.spec.n_in,
                                      dim=module.spec.in_dim, label="dense",
                                      traced=False)
            elif block:
                module_in = block[0]
            else:
                module_in = feats
            coords, feats = nb.module(module, coords, module_in)
            # A pooling module starts a fresh block; a dense module
            # extends the running concatenation.
            block = block + [feats] if dense else [feats]
        # feats is each cloud's (1, 512) global vector — (nclouds, 512) flat.
        nb.output(nb.head(self.head, feats, rows=1))
