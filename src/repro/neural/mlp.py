"""Shared MLPs — the feature-computation operator ``F`` of the paper.

A shared MLP applies the same per-point stack of Linear + ReLU layers
to every row of its input.  In the original formulation the rows are
aggregated neighbor offsets (K rows per centroid); with
delayed-aggregation the rows are the raw input points.  The module
itself is agnostic — that choice is made by the graph a network runs
it in (:mod:`repro.graph`).  A network's heads and embeddings are
shared MLPs too, over per-cloud or per-point rows.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module, ReLU

__all__ = ["SharedMLP"]


class SharedMLP(Module):
    """Stack of ``Linear -> ReLU`` layers.

    Parameters
    ----------
    dims:
        Layer widths including the input width, e.g. ``[3, 64, 64, 128]``
        builds the first PointNet++ module's MLP from Fig 3.
    final_activation:
        Apply the nonlinearity after the last layer too (the paper's
        module MLPs do; classification and regression heads do not).
    """

    def __init__(self, dims, final_activation=True, rng=None):
        if len(dims) < 2:
            raise ValueError("SharedMLP needs at least input and output widths")
        rng = rng or np.random.default_rng(0)
        self.dims = list(dims)
        self.layers = []
        last = len(dims) - 2
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            self.layers.append(Linear(a, b, rng=rng))
            if i < last or final_activation:
                self.layers.append(ReLU())

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def export_layers(self):
        """The flat layer list a kernel backend exports parameters from."""
        return self.layers
