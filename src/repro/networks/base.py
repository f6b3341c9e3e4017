"""Base classes shared by the seven benchmark networks (Table I).

Every network is a stack of :class:`~repro.core.module.PointCloudModule`
encoders plus task-specific machinery (feature-propagation decoders for
segmentation, fully-connected heads for classification/regression), each
held as a :class:`~repro.neural.SharedMLP`.

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
stream, carrying the N/F-overlap flags the hardware models read — all
from the same program.
"""

from __future__ import annotations

import numpy as np

from ..core import ModuleSpec
from ..graph.network import build_network_graph
from ..neural import Module

__all__ = [
    "PointCloudNetwork",
    "scale_spec",
]


def scale_spec(spec, factor):
    """Scale a module spec's point counts (and cap k) by ``factor``.

    Used to derive toy-scale configurations for training from the
    paper-scale ones, keeping the architecture (MLP widths) intact.
    """
    if not (factor > 0 and np.isfinite(factor)):
        raise ValueError(
            f"scale factor must be positive and finite, got {factor}")
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
    — single-cloud forward, batched forward, the analytic trace — is
    derived from the resulting whole-network graph.
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

    def __init__(self, modules):
        self.encoder = list(modules)

    # -- the declarative builder --------------------------------------------

    def _build_graph(self, nb):
        """Emit this network's topology into builder ``nb``."""
        raise NotImplementedError

    def network_graph(self, strategy="delayed"):
        """The whole-network graph under ``strategy`` (memoized)."""
        # Filled lazily: subclasses attach heads after their base
        # initializer runs, so nothing is built before the first call.
        graphs = vars(self).setdefault("_network_graphs", {})
        cached = graphs.get(strategy)
        if cached is None:
            cached = graphs[strategy] = build_network_graph(self, strategy)
        return cached

    def trace(self, strategy="original"):
        """Emit the operator trace at this instance's scale.

        Lowered from the same graph the executors run, so analytics and
        execution cannot drift.  The lowering and :mod:`repro.profiling`
        load here, with the first trace — executing never imports them.
        """
        from ..graph.lower import lower_network_trace
        from ..profiling import Trace

        return lower_network_trace(
            self.network_graph(strategy), Trace(self.name, strategy)
        )

    # -- execution -----------------------------------------------------------

    @property
    def n_points(self):
        return self.encoder[0].spec.n_in

    def forward(self, coords, strategy="delayed"):
        """Run the network over one (n_points, 3) cloud.

        The cloud runs as a stack of one and the result is unwrapped to
        the per-cloud shapes: ``(1, C)`` class logits, ``(n, C)``
        per-point logits, or a detection dict of those.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.n_points, 3):
            raise ValueError(
                f"{self.name} expects {(self.n_points, 3)} coords, "
                f"got {coords.shape}"
            )
        from ..graph.executors import GraphExecutor

        ngraph = self.network_graph(strategy)
        return _only_cloud(ngraph,
                           GraphExecutor().run_network(ngraph, coords[None]))

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
        from ..graph.executors import GraphExecutor

        return GraphExecutor().run_network(self.network_graph(strategy),
                                           coords)
