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

Since the operator-graph IR landed, the module no longer hand-writes a
forward body per strategy: it builds its graph once in ``original``
form and the ``delayed``/``limited`` orderings are graph-rewrite passes
(:mod:`repro.graph.passes`).  Execution interprets the rewritten graph
over a stack of clouds (:mod:`repro.graph.executors`; ``forward`` lifts
its one cloud into a stack of one and unwraps the result), and the
operator trace the profiling analytics and hardware simulators consume
is lowered from the *same* graph (:mod:`repro.graph.lower`), so trace
and execution cannot drift.  :func:`emit_module_trace` remains the
analytic entry point (it never touches point data, so paper-scale
inputs stay cheap) as a thin shim over the lowering.

Networks no longer compose modules through Python bodies either: the
network builder (:mod:`repro.graph.network`) inlines
:func:`repro.graph.build.build_module_graph` as a subroutine, so whole
networks lower to one graph and the per-module ``forward_batch`` here
survives as the composition baseline
(:meth:`repro.networks.base.PointCloudNetwork.forward_composed`) the
graph executor is bit-exactness-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.executors import GraphExecutor
from ..graph.passes import module_graph
from ..neural import SharedMLP, Tensor
from ..neural.layers import Linear, Module
from .tables import BatchedNeighborIndexTable, NeighborIndexTable, PointFeatureTable

__all__ = [
    "ModuleSpec",
    "PointCloudModule",
    "ModuleOutput",
    "BatchModuleOutput",
    "emit_module_trace",
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
    """Result of executing a module."""

    coords: np.ndarray
    features: Tensor
    nit: NeighborIndexTable
    pft: PointFeatureTable = None


@dataclass
class BatchModuleOutput:
    """Result of executing a module over a batch of clouds.

    ``coords`` is (batch, n_out, 3); ``features`` is a flat
    (batch * n_out, m_out) Tensor in cloud-major row order, so the
    shared-MLP layers downstream treat the whole batch as extra rows.
    """

    coords: np.ndarray
    features: Tensor
    nit: BatchedNeighborIndexTable
    pft: PointFeatureTable = None


class PointCloudModule(Module):
    """Executable module parameterized by a :class:`ModuleSpec`.

    Both forward paths interpret the module's strategy-rewritten
    operator graph; the graphs themselves are memoized per
    (spec, strategy) by :func:`repro.graph.passes.module_graph`.
    """

    def __init__(self, spec, batch_norm=False, rng=None):
        super().__init__()
        self.spec = spec
        self.mlp = SharedMLP(list(spec.mlp_dims), batch_norm=batch_norm, rng=rng)
        self._rng = rng or np.random.default_rng(0)
        # Per-instance handle onto the shared (spec, strategy) graph
        # memo: skips re-hashing the spec on every forward.
        self._graphs = {}

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

    def graph(self, strategy="delayed"):
        """This module's operator graph under ``strategy`` (memoized)."""
        if strategy == "limited" and not isinstance(
            next(iter(self.mlp.net.layers), None), Linear
        ):
            # Checked every call, not just on the memo miss: the MLP's
            # layer list is mutable after construction.
            raise TypeError("limited strategy requires a leading Linear layer")
        cached = self._graphs.get(strategy)
        if cached is None:
            if strategy not in STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
            cached = self._graphs[strategy] = module_graph(self.spec, strategy)
        return cached

    # -- strategies -------------------------------------------------------

    def forward(self, coords, features, strategy="delayed", trace=None,
                centroid_idx=None, executor=None):
        """Run the module.

        Parameters
        ----------
        coords:
            (n_in, 3) numpy coordinates.
        features:
            (n_in, Min) Tensor of per-point features.
        strategy:
            One of :data:`STRATEGIES`.
        trace:
            Optional :class:`Trace` to append operator records to.
        centroid_idx:
            Optional externally-chosen centroid indices (length n_out).
            Multi-scale grouping passes the same set to every scale
            branch; by default the module samples its own.
        executor:
            Optional graph executor (anything with the
            :class:`~repro.graph.executors.GraphExecutor` ``run``
            contract; it is handed the cloud as a stack of one).  The
            default is a fresh :class:`GraphExecutor`.

        Returns a :class:`ModuleOutput`.
        """
        graph = self.graph(strategy)
        n_in = coords.shape[0]
        if features.shape != (n_in, self.spec.in_dim):
            raise ValueError(
                f"{self.spec.name}: expected features "
                f"{(n_in, self.spec.in_dim)}, got {features.shape}"
            )
        if trace is not None:
            emit_module_trace(self.spec, strategy, trace, n_in=n_in)
        if centroid_idx is not None and len(centroid_idx) != self.spec.n_out:
            raise ValueError(
                f"{self.spec.name}: expected {self.spec.n_out} centroids, "
                f"got {len(centroid_idx)}"
            )

        if executor is None:
            executor = GraphExecutor()
        # A cloud is a stack of one: lift, run the stack path, unwrap.
        result = executor.run(
            graph, self, coords[None], features, centroid_idx=centroid_idx
        )
        out_coords = coords[result.centroid_idx]
        nit = NeighborIndexTable(result.indices[0], result.centroid_idx)
        pft = PointFeatureTable(result.pft_data) \
            if result.pft_data is not None else None
        return ModuleOutput(out_coords, result.features, nit, pft)

    def forward_batch(self, coords, features, strategy="delayed"):
        """Run the module over a batch of clouds at once.

        Parameters
        ----------
        coords:
            (batch, n_in, 3) numpy coordinates.
        features:
            Flat (batch * n_in, Min) Tensor of per-point features, rows
            in cloud-major order.
        strategy:
            One of :data:`STRATEGIES`.

        The executor runs the neighbor search over the stack
        (cloud-local indices), lifts the indices into the flat row
        space, and then every graph node processes the whole batch as
        one tall matrix — the same arithmetic per row at every height.

        Returns a :class:`BatchModuleOutput`.
        """
        graph = self.graph(strategy)
        batch, n_in = coords.shape[0], coords.shape[1]
        if features.shape != (batch * n_in, self.spec.in_dim):
            raise ValueError(
                f"{self.spec.name}: expected flat features "
                f"{(batch * n_in, self.spec.in_dim)}, got {features.shape}"
            )
        result = GraphExecutor().run(graph, self, coords, features)
        out_coords = coords[:, result.centroid_idx]
        nit = BatchedNeighborIndexTable(result.indices, result.centroid_idx)
        pft = PointFeatureTable(result.pft_data) \
            if result.pft_data is not None else None
        return BatchModuleOutput(out_coords, result.features, nit, pft)


def emit_module_trace(spec, strategy, trace, n_in=None):
    """Append the operator records for one module run to ``trace``.

    A thin shim over :func:`repro.graph.lower.lower_module_trace`: the
    records are lowered from the same strategy-rewritten graph the
    executors run, so the analytics stay consistent with execution by
    construction.  Purely analytic — it never touches point data — so
    it can be evaluated at the paper's full input scale (e.g.
    130K-point KITTI frames) in microseconds.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    # Imported here: analytics-only, so execution never loads the trace
    # lowering or repro.profiling.
    from ..graph.lower import lower_module_trace

    return lower_module_trace(spec, strategy, trace, n_in=n_in)
