"""The point cloud module and its three execution strategies.

A *module* (§III-A) maps an (Nin, Min) point cloud to an (Nout, Mout)
point cloud through neighbor search (N), aggregation (A) and feature
computation (F).  The three orderings studied in the paper:

* ``original`` — ``F(A(N(p), p))``: aggregate neighbor offsets, then run
  the shared MLP over Nout*K rows (Fig 3).
* ``delayed`` — ``A(F(N(p)), F(p))``: run the MLP once over the Nin
  input points, then gather/reduce/subtract in feature space (Fig 8).
  Because max-reduction distributes exactly over subtraction, the
  centroid's feature is subtracted *after* the reduction.
* ``limited`` — the GNN-style variant (§VII-C): hoist only the first
  matrix-vector product (which is exactly linear), aggregate, then run
  the remaining layers over Nout*K rows.

The module does not hand-write a forward body per strategy: a module
is a region of a network graph, emitted once in ``original`` order by
:meth:`repro.graph.network.NetworkGraphBuilder.module`, and the
``delayed``/``limited`` orderings are graph-rewrite passes
(:mod:`repro.graph.passes`).  A module runs and traces only as a region
of a network (:class:`repro.networks.base.PointCloudNetwork`); a module
on its own is a one-module network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..neural import SharedMLP
from ..neural.layers import Module

__all__ = [
    "ModuleSpec",
    "PointCloudModule",
    "STRATEGIES",
    "strided_centroids",
]

STRATEGIES = ("original", "delayed", "limited")


def strided_centroids(n_in, n_out):
    """The ids of ``n_out`` evenly strided centroids among ``n_in`` points.

    The paper's optimized baseline replaces farthest-point sampling
    with random sampling (§VI); point order in our clouds is already
    unstructured, so a deterministic stride is an equivalent draw
    while keeping forward passes reproducible (which stabilizes
    training and evaluation at toy scale).  A module's draw is a fixed
    function of its ``n_in`` and ``n_out``.
    """
    if n_out == n_in:
        return np.arange(n_in)
    return np.linspace(0, n_in - 1, n_out).astype(np.int64)


@dataclass(frozen=True)
class ModuleSpec:
    """Static description of one module — enough to execute or trace it.

    Attributes
    ----------
    name:
        Identifier used in traces.
    n_in / n_out:
        Input point count and output centroid count.
    k:
        Neighborhood size.
    mlp_dims:
        Shared-MLP widths including the input width, e.g. [3, 64, 64, 128].
    search_space:
        ``"coords"`` (PointNet++-style: always search the 3-D space) or
        ``"features"`` (DGCNN-style: search the input feature space of
        the module).
    """

    name: str
    n_in: int
    n_out: int
    k: int
    mlp_dims: tuple
    search_space: str = "coords"

    def __post_init__(self):
        for field, value in (("n_in", self.n_in), ("n_out", self.n_out),
                             ("k", self.k)):
            if value < 1:
                raise ValueError(f"{self.name}: {field} must be at least 1, "
                                 f"got {value}")
        if any(width < 1 for width in self.mlp_dims):
            raise ValueError(f"{self.name}: every MLP width must be at least "
                             f"1, got {tuple(self.mlp_dims)}")
        if self.n_out > self.n_in:
            raise ValueError(f"{self.name}: n_out cannot exceed n_in")
        if self.k > self.n_in:
            raise ValueError(f"{self.name}: k cannot exceed n_in")
        if len(self.mlp_dims) < 2:
            raise ValueError(f"{self.name}: mlp_dims needs >= 2 entries")
        if self.search_space not in ("coords", "features"):
            raise ValueError(f"{self.name}: bad search_space {self.search_space!r}")
        object.__setattr__(self, "mlp_dims", tuple(self.mlp_dims))

    @property
    def in_dim(self):
        return self.mlp_dims[0]

    @property
    def out_dim(self):
        return self.mlp_dims[-1]

    @property
    def search_dim(self):
        return 3 if self.search_space == "coords" else self.in_dim


class PointCloudModule(Module):
    """A module's parameters: its :class:`ModuleSpec` and shared MLP.

    It runs and traces only as a region of a network graph
    (:meth:`~repro.graph.network.NetworkGraphBuilder.module`), which
    samples its centroids with :func:`strided_centroids`.
    """

    def __init__(self, spec, rng=None):
        self.spec = spec
        self.mlp = SharedMLP(list(spec.mlp_dims), rng=rng)
