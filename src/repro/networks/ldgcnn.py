"""LDGCNN [65] — linked dynamic graph CNN (classification).

LDGCNN links hierarchical features: each EdgeConv consumes the
concatenation of the raw coordinates and every previous module's
output, and the final embedding sees all of them.  Like DGCNN (c), each
module has a single MLP layer (§VII-C), so the limited (GNN-style)
delayed-aggregation variant is as strong as the full one on this
network — one of the paper's observations in Fig 17.
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec, PointCloudModule
from ..neural import SharedMLP
from .base import PointCloudNetwork, scale_spec

__all__ = ["LDGCNN"]


def _linked_specs(n=1024, k=20):
    dims = []
    widths = (64, 64, 64, 128)
    in_dim = 3
    for i, w in enumerate(widths):
        search = "coords" if i == 0 else "features"
        dims.append(
            ModuleSpec(f"ec{i + 1}", n_in=n, n_out=n, k=k, mlp_dims=(in_dim, w),
                       search_space=search)
        )
        in_dim += w  # next module sees the link concat
    return tuple(dims)


_SPECS = _linked_specs()


class LDGCNN(PointCloudNetwork):
    """LDGCNN: linked EdgeConvs + global embedding + FC classifier."""

    name = "LDGCNN"
    task = "classification"
    dataset = "ModelNet40"
    year = 2019
    paper_n_points = 1024

    def __init__(self, num_classes=40, scale=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        specs = [scale_spec(s, scale) for s in _SPECS]
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.num_classes = num_classes
        link_dim = 3 + sum(s.out_dim for s in specs)  # 3+64+64+64+128 = 323
        self.embed = SharedMLP([link_dim, 1024], rng=rng)
        self.head = SharedMLP([1024, 512, 256, num_classes],
                              final_activation=False, rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        n = self.n_points
        links = [feats]  # raw coordinates
        for module in self.encoder:
            if len(links) == 1:
                module_in = links[0]
            else:
                # Per-module link concats are real executed glue but
                # were never part of the analytic emission; they stay
                # untraced so the trace stream is unchanged.
                module_in = nb.concat(links, rows=n, dim=module.spec.in_dim,
                                      label="link", traced=False)
            coords, feats = nb.module(module, coords, module_in)
            links.append(feats)
        fused = nb.concat(links, rows=n, dim=self.embed.dims[0], label="link")
        embedded = nb.head(self.embed, fused, rows=n, label="embed")
        pooled = nb.global_max(embedded, k=n, dim=self.embed.dims[-1],
                               label="embed")  # (nclouds, 1024)
        nb.output(nb.head(self.head, pooled, rows=1))
