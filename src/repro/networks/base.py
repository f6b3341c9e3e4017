"""Base classes shared by the seven benchmark networks (Table I).

Every network is a stack of :class:`~repro.core.module.PointCloudModule`
encoders plus task-specific machinery (feature-propagation decoders for
segmentation, fully-connected heads for classification/regression).

Networks run in two modes:

* **execute** — real numpy/autograd forward over point clouds, used by
  the accuracy experiments (Fig 16) at reduced scale;
* **trace** — analytic emission of the operator sequence at the paper's
  full input scale, consumed by the profiling analytics and the
  hardware models (Figs 4-22).

Since whole-network graphs landed, every network declares its topology
*once* through a declarative :meth:`PointCloudNetwork._build_graph`
builder (:class:`~repro.graph.network.NetworkGraphBuilder`): the entire
network — modules, heads, feature propagation, skip concats — lowers to
one operator graph per strategy.  ``forward_batch`` interprets it over a
stack of clouds; ``forward`` lifts its one cloud into a stack of one
and unwraps the result (a cloud is a stack of one — executors never
look at rank); ``trace`` lowers the same graph to the analytic operator
stream, and the engine's async scheduler substitutes a dependency-driven
executor that overlaps neighbor search with feature computation
*across module boundaries* — all from the same program.
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec
from ..graph import GraphExecutor, build_network_graph
from ..neighbors import neighbor_search
from ..neural import Dropout, Linear, Module, ReLU, Sequential, Tensor, concat, stack

__all__ = [
    "FCHead",
    "FeaturePropagation",
    "PointCloudNetwork",
    "scale_spec",
]


def scale_spec(spec, factor):
    """Scale a module spec's point counts (and cap k) by ``factor``.

    Used to derive toy-scale configurations for training from the
    paper-scale ones, keeping the architecture (MLP widths) intact.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    n_in = max(1, int(round(spec.n_in * factor)))
    n_out = max(1, min(n_in, int(round(spec.n_out * factor))))
    if factor >= 1:
        k = min(n_in, spec.k)
    else:
        # Scale neighborhood size with density, but keep at least 8
        # neighbors — a K of 1-2 degenerates to self-only offsets and
        # starves the module of signal.
        k = min(n_in, max(min(8, spec.k), int(round(spec.k * factor))))
    return ModuleSpec(
        spec.name, n_in, n_out, k, spec.mlp_dims, search_space=spec.search_space
    )


class FCHead(Module):
    """Fully-connected classification/regression head."""

    def __init__(self, dims, dropout=0.0, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dims = list(dims)
        layers = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(a, b, rng=rng))
            if i < len(dims) - 2:
                layers.append(ReLU())
                if dropout:
                    layers.append(Dropout(dropout, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x):
        return self.net(x)

    def export_layers(self):
        """The flat layer list a kernel backend exports parameters from."""
        return list(self.net.layers)


class FeaturePropagation(Module):
    """PointNet++ feature propagation (decoder) module.

    Interpolates coarse features onto the fine point set with
    inverse-distance weights over the 3 nearest coarse points (the
    ``three_interpolate`` kernel the paper's baseline optimizes), then
    concatenates skip features and applies a unit MLP.
    Delayed-aggregation does not alter FP modules; they contribute to
    the F phase identically under every strategy, which is why the
    network graph models them as single ``propagate`` nodes.
    """

    K = 3

    def __init__(self, name, n_points, mlp_dims, rng=None):
        super().__init__()
        from ..neural import SharedMLP

        self.name = name
        self.n_points = n_points
        self.mlp = SharedMLP(list(mlp_dims), rng=rng)

    def export_layers(self):
        """The flat layer list a kernel backend exports parameters from."""
        return self.mlp.export_layers()

    def forward(self, fine_coords, fine_feats, coarse_coords, coarse_feats):
        """Propagate (n_coarse, C) features to (n_fine, ...) points.

        A cloud is a stack of one: flat feature rows already are the
        stack form, so only the coordinates need lifting.
        """
        return self.forward_batch(fine_coords[None], fine_feats,
                                  coarse_coords[None], coarse_feats)

    def forward_batch(self, fine_coords, fine_feats, coarse_coords, coarse_feats):
        """Batched propagation: (B, n_fine, 3) clouds, flat feature rows.

        ``fine_feats``/``coarse_feats`` are flat (B * n, C) Tensors in
        cloud-major order (``fine_feats`` may be None, as on the first
        decoder level).  The three-nearest search runs over the stack;
        the inverse-distance interpolation then works on flat rows.
        """
        batch, n_fine = fine_coords.shape[0], fine_coords.shape[1]
        n_coarse = coarse_coords.shape[1]
        k = min(self.K, n_coarse)
        idx, dist = neighbor_search(coarse_coords, fine_coords, k)  # (B, nf, k)
        weights = 1.0 / np.maximum(dist, 1e-8)
        weights = weights / weights.sum(axis=-1, keepdims=True)
        row_base = (np.arange(batch, dtype=np.int64) * n_coarse)[:, None, None]
        flat_idx = (idx + row_base).reshape(batch * n_fine, k)
        gathered = coarse_feats.gather(flat_idx)  # (B * nf, k, C)
        flat_w = Tensor(weights.reshape(batch * n_fine, k)[:, :, None])
        interpolated = (gathered * flat_w).sum(axis=1)
        if fine_feats is not None:
            interpolated = concat([fine_feats, interpolated], axis=1)
        return self.mlp(interpolated)


def _only_cloud(ngraph, stacked):
    """A stack-of-one result in :meth:`PointCloudNetwork.forward`'s shapes.

    Per-point outputs lose their leading stack axis; per-cloud rows
    (``(1, C)`` logits, box parameters) already are the per-cloud form.
    """
    def unwrap(value, out):
        return value.reshape(value.shape[1:]) if out.per_point else value

    if isinstance(stacked, dict):
        return {out.name: unwrap(stacked[out.name], out)
                for out in ngraph.outputs}
    return unwrap(stacked, ngraph.outputs[0])


class PointCloudNetwork(Module):
    """Common driver for the benchmark networks.

    Subclasses define ``self.encoder`` (a list of PointCloudModules)
    and declare their topology once in :meth:`_build_graph` against a
    :class:`~repro.graph.network.NetworkGraphBuilder`.  Everything else
    — single-cloud forward, batched forward, the analytic trace, the
    N/F-overlap schedule — is derived from the resulting whole-network
    graph.
    """

    #: Short name used in figures, e.g. "PointNet++ (c)".
    name = "base"
    #: "classification" | "segmentation" | "detection"
    task = "classification"
    #: Dataset the paper evaluates on.
    dataset = "ModelNet40"
    #: Publication year (Table I).
    year = 2017
    #: Canonical input size at paper scale.
    paper_n_points = 1024

    def __init__(self, modules, rng=None):
        super().__init__()
        self.encoder = list(modules)
        self._rng = rng or np.random.default_rng(0)
        # Per-(instance, strategy) whole-network graph memo; built
        # lazily because subclasses attach heads after this runs.
        self._network_graphs = {}

    # -- the declarative builder --------------------------------------------

    def _build_graph(self, nb):
        """Emit this network's topology into builder ``nb``."""
        raise NotImplementedError

    def network_graph(self, strategy="delayed"):
        """The whole-network graph under ``strategy`` (memoized)."""
        cached = self._network_graphs.get(strategy)
        if cached is None:
            cached = self._network_graphs[strategy] = build_network_graph(
                self, strategy
            )
        return cached

    # -- execution -----------------------------------------------------------

    @property
    def n_points(self):
        return self.encoder[0].spec.n_in

    def forward(self, coords, strategy="delayed", trace=None, executor=None):
        """Run the network over one (n_points, 3) cloud.

        The cloud runs as a stack of one and the result is unwrapped to
        the per-cloud shapes: ``(1, C)`` class logits, ``(n, C)``
        per-point logits, or a detection dict of those.  ``executor``
        optionally substitutes the whole-network graph executor
        (anything with the
        :class:`~repro.graph.executors.GraphExecutor` ``run_network``
        contract); the engine's async scheduler passes its cross-module
        N/F-overlap executor here.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.n_points, 3):
            raise ValueError(
                f"{self.name} expects {(self.n_points, 3)} coords, "
                f"got {coords.shape}"
            )
        ngraph = self.network_graph(strategy)
        if trace is not None:
            from ..graph import lower_network_trace

            lower_network_trace(ngraph, trace)
        if executor is None:
            executor = GraphExecutor()
        return _only_cloud(ngraph,
                           executor.run_network(ngraph, self, coords[None]))

    def forward_batch(self, coords, strategy="delayed"):
        """Run the network over a (batch, n_points, 3) stack of clouds.

        Classification networks return a (batch, num_classes) Tensor,
        segmentation networks (batch, n_points, num_classes), detection
        networks a dict of batched tensors.  The whole stack goes
        through one neighbor search per module and tall shared-MLP
        matrices.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 2:
            coords = coords[None]
        if coords.ndim != 3 or coords.shape[1:] != (self.n_points, 3):
            raise ValueError(
                f"{self.name} expects (batch, {self.n_points}, 3) coords, "
                f"got {coords.shape}"
            )
        return GraphExecutor().run_network(
            self.network_graph(strategy), self, coords
        )

    def forward_composed(self, coords, strategy="delayed"):
        """Per-module composition: the pre-network-graph execution path.

        Each module region runs through
        :meth:`~repro.core.module.PointCloudModule.forward_batch`
        exactly as networks composed modules before whole-network
        graphs; only the glue interprets the graph.  Takes one cloud or
        a (B, N, 3) stack.  Kept as the bit-exactness baseline the
        ``netgraph`` bench row and the equivalence tests measure
        against.
        """
        coords = np.asarray(coords, dtype=np.float64)
        ngraph = self.network_graph(strategy)
        if coords.ndim == 3:
            return GraphExecutor().run_composed(ngraph, self, coords)
        return _only_cloud(
            ngraph, GraphExecutor().run_composed(ngraph, self, coords[None])
        )

    @staticmethod
    def stack_outputs(outputs):
        """Stack per-cloud forward outputs along a new batch axis.

        The single source of truth for the output convention: (1, C)
        classification logits concatenate to (B, C); (n, C) per-point
        logits stack to (B, n, C); anything else (detection dicts) is
        returned as a plain list.
        """
        if all(isinstance(out, Tensor) for out in outputs):
            if outputs[0].ndim == 2 and outputs[0].shape[0] == 1:
                return concat(outputs, axis=0)  # classification: (B, C)
            return stack(outputs, axis=0)  # segmentation: (B, n, C)
        return outputs

    # -- tracing ------------------------------------------------------------

    def trace(self, strategy="original"):
        """Emit the full-network operator trace at this instance's scale.

        Lowered from the same whole-network graph the executors run, so
        analytics and execution cannot drift.  The lowering and
        :mod:`repro.profiling` load here, with the first trace —
        executing a network never imports them.
        """
        from ..graph import lower_network_trace
        from ..profiling import Trace

        return lower_network_trace(
            self.network_graph(strategy), Trace(self.name, strategy)
        )
