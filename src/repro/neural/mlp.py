"""Shared MLPs — the feature-computation operator ``F`` of the paper.

A shared MLP applies the same per-point stack of layers to every row of
its input; a layer is a Linear and, if its ``relu`` flag is set, a ReLU.
In the original formulation the rows are aggregated neighbor offsets (K
rows per centroid); with delayed-aggregation the rows are the raw input
points.  The module itself is agnostic — that choice is made by the
graph a network runs it in (:mod:`repro.graph`), where each layer is one
``matmul`` node.  A network's heads and embeddings are shared MLPs too,
over per-cloud or per-point rows.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module

__all__ = ["SharedMLP"]


class SharedMLP(Module):
    """Stack of ``Linear -> ReLU`` layers.

    Layer ``i`` is ``layers[i]``, a :class:`~repro.neural.Linear`,
    followed by a ReLU where ``relu[i]`` is true.  Both are plain
    attributes: assigning them rebuilds the MLP (say, as an affine map).

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
        self.layers = [Linear(a, b, rng=rng)
                       for a, b in zip(dims[:-1], dims[1:])]
        self.relu = (True,) * (len(dims) - 2) + (bool(final_activation),)

    def forward(self, x):
        for linear, relu in zip(self.layers, self.relu, strict=True):
            x = linear(x)
            if relu:
                x = x.relu()
        return x
