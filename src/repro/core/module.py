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
(:mod:`repro.graph.passes`).  Run alone, a module is a one-module
network: :meth:`PointCloudModule.forward` lifts its cloud into a stack
of one, runs that graph through
:meth:`repro.graph.executors.GraphExecutor.run_network` with the
feature table as its input, and unwraps the :class:`ModuleOutput`.
:meth:`PointCloudModule.trace` lowers the *same* graph to the operator
trace the profiling analytics and hardware simulators consume (it never
touches point data, so paper-scale inputs stay cheap), so trace and
execution cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.network import NetworkGraphMixin
from ..neural import SharedMLP, Tensor
from ..neural.layers import Linear, Module

__all__ = [
    "ModuleSpec",
    "PointCloudModule",
    "ModuleOutput",
    "STRATEGIES",
]

STRATEGIES = ("original", "delayed", "limited")


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


@dataclass
class ModuleOutput:
    """What one module run produces.

    :meth:`PointCloudModule.forward` returns it for one cloud:
    ``coords`` ``(n_out, 3)``, ``features`` an ``(n_out, Mout)`` Tensor,
    ``indices`` the ``(n_out, k)`` Neighbor Index Table and ``centroids``
    the ``(n_out,)`` sampled point ids.  ``pft`` holds the Point Feature
    Table rows (the MLP output per *input* point) when the strategy
    produced one, else ``None``.
    """

    coords: np.ndarray
    features: Tensor
    indices: np.ndarray
    centroids: np.ndarray
    pft: np.ndarray = None


class PointCloudModule(NetworkGraphMixin, Module):
    """Executable module parameterized by a :class:`ModuleSpec`.

    To the graph builder it is a one-module network (``name``,
    ``n_points`` and ``_build_graph``); ``forward`` interprets that
    graph under a strategy and ``trace`` lowers it, both memoized per
    instance by :meth:`network_graph`.
    """

    def __init__(self, spec, batch_norm=False, rng=None):
        super().__init__()
        self.spec = spec
        self.mlp = SharedMLP(list(spec.mlp_dims), batch_norm=batch_norm, rng=rng)

    @property
    def name(self):
        return self.spec.name

    @property
    def n_points(self):
        return self.spec.n_in

    # -- shared steps -------------------------------------------------------

    def _sample_centroids(self, n_in):
        """Evenly-strided centroid subset.

        The paper's optimized baseline replaces farthest-point sampling
        with random sampling (§VI); point order in our clouds is already
        unstructured, so a deterministic stride is an equivalent draw
        while keeping forward passes reproducible (which stabilizes
        training and evaluation at toy scale).
        """
        if self.spec.n_out == n_in:
            return np.arange(n_in)
        return np.linspace(0, n_in - 1, self.spec.n_out).astype(np.int64)

    def _build_graph(self, nb):
        """The one-module network: the feature table in, one region."""
        coords, feats = nb.input(features=self.spec.in_dim)
        nb.output(nb.module(self, coords, feats)[1])

    def network_graph(self, strategy="delayed"):
        """This module's one-region graph under ``strategy`` (memoized)."""
        if strategy == "limited" and not isinstance(
            next(iter(self.mlp.net.layers), None), Linear
        ):
            # Checked every call, not just on the memo miss: the MLP's
            # layer list is mutable after construction.
            raise TypeError("limited strategy requires a leading Linear layer")
        return super().network_graph(strategy)

    def forward(self, coords, features, strategy="delayed"):
        """Run the module over one cloud.

        Parameters
        ----------
        coords:
            (n_in, 3) numpy coordinates, ``n_in`` the spec's.
        features:
            (n_in, Min) Tensor of per-point features.
        strategy:
            One of :data:`STRATEGIES`.

        The cloud runs through
        :meth:`~repro.graph.executors.GraphExecutor.run_network` as a
        stack of one; its :class:`ModuleOutput` is read off the run's
        :attr:`~repro.graph.executors.GraphExecutor.values` — the
        region's ``sample`` and ``search`` values and the aggregate's
        feature table.
        """
        spec = self.spec
        if coords.shape != (spec.n_in, 3):
            raise ValueError(f"{spec.name} expects {(spec.n_in, 3)} coords, "
                             f"got {coords.shape}")
        if features.shape != (spec.n_in, spec.in_dim):
            raise ValueError(
                f"{spec.name}: expected features "
                f"{(spec.n_in, spec.in_dim)}, got {features.shape}"
            )
        ngraph = self.network_graph(strategy)

        # Imported here: the interpreter serves training and the test
        # oracle only, so a server start never loads it.
        from ..graph.executors import GraphExecutor

        executor = GraphExecutor()
        out = executor.run_network(ngraph, self, coords[None],
                                   features=features)
        values = executor.values
        region = ngraph.regions[0]
        centroids = values[region.sample]
        # The Point Feature Table is the product the aggregate gathers
        # from; under ``original`` it gathers the input features.
        table = ngraph.graph.only("aggregate").inputs[0]
        pft = values[table].data \
            if ngraph.graph.node(table).kind == "matmul" else None
        return ModuleOutput(coords[centroids], out, values[region.search],
                            centroids, pft)
