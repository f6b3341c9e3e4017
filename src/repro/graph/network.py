"""Whole-network graphs: lift heads, decoders and skip glue into the IR.

The paper's delayed-aggregation story is a *network-level* property —
module i+1's hoisted MLP is independent of module i's aggregation drain
— but per-module graphs stop at module boundaries, so passes, the
scheduler and the trace cannot see across them.  This module closes the
gap: a network declares its topology once through a
:class:`NetworkGraphBuilder` and the whole network lowers to ONE
:class:`~repro.graph.ir.Graph`:

* every module's *original-order* subgraph is inlined (per-module
  ``build`` becomes a subroutine of the network builder), tagged with
  ``attrs["module"]`` so the strategy rewrites apply region-wise;
* heads, feature propagation, skip concats, global pooling and stage
  coordinates are first-class IR nodes (``head`` / ``propagate`` /
  ``concat`` / ``global_max`` / ``coords`` / ``lift`` / ``select``);
* the standard pass pipeline (:data:`repro.graph.passes.PIPELINES`)
  then runs over the *full* graph — delayed/limited rewrite every
  module region, fusion collapses every aggregation, and DCE drops
  genuinely dead skip branches and unused head inputs network-wide.

Because coordinates flow through explicit ``coords`` nodes (derived
from sampling, never from features), a downstream module's
sample→search chain depends only on the *sampling* chain of its
predecessors: `schedule_graph` over a network graph therefore exposes
cross-module N/F overlap — module i+1's neighbor search is ready while
module i's MLP and aggregation still drain — which
:class:`repro.engine.scheduler.OverlapExecutor` exploits at run time.

:class:`~repro.graph.executors.GraphExecutor` interprets these graphs
with the same per-node arithmetic it runs module graphs with, so
whole-network execution is bit-exact against composing the same modules
through :meth:`repro.core.module.PointCloudModule.forward_batch` — the
pre-network-graph path, kept available as
:meth:`~repro.graph.executors.GraphExecutor.run_composed` (the
``netgraph`` bench baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .build import build_module_graph
from .ir import Graph, resolve_dim, shape_env
from .passes import run_pipeline
from .schedule import schedule_graph

__all__ = [
    "NetworkGraph",
    "NetworkGraphBuilder",
    "NetworkOutput",
    "NetworkRegion",
    "build_network_graph",
]

#: Node kinds executed through the per-module executor dispatch.
MODULE_KINDS = (
    "sample", "search", "gather", "subtract", "matmul", "reduce_max",
    "aggregate", "epilogue",
)

#: Spec-level attr values that are identifiers, not symbolic dims.
_NON_DIM_ATTRS = ("space", "signature", "mode")


@dataclass(frozen=True)
class NetworkOutput:
    """One named network output.

    ``per_point`` marks per-point logits: executors reshape their flat
    rows to ``(batch, n, C)``, and the single-cloud front door unwraps
    the stack of one to ``(n, C)``.
    """

    node: int
    name: str = None
    per_point: bool = False


@dataclass(frozen=True)
class NetworkRegion:
    """Where one inlined module lives in the network graph.

    ``coords``/``feats`` are the node ids feeding the region,
    ``sample`` its centroid-sampling node and ``output`` its
    externally-consumed feature node — everything the composed
    (per-module) execution path needs to splice
    :meth:`~repro.core.module.PointCloudModule.forward` in place of the
    region.
    """

    module: int
    coords: int
    feats: int
    sample: int
    output: int


@dataclass(frozen=True)
class NetworkGraph:
    """A whole network lowered to one strategy-rewritten graph.

    ``refs`` holds the executable objects graph nodes reference
    (modules by ``attrs["module"]``, heads/decoders by
    ``attrs["ref"]``); ``outputs`` the named output spec; ``regions``
    the per-module splice points.
    """

    network: str
    strategy: str
    graph: Graph
    refs: tuple
    outputs: tuple
    regions: tuple

    def __len__(self):
        return len(self.graph)

    def schedule(self):
        """The cross-module N/F-lane schedule of this graph."""
        return schedule_graph(self.graph)

    @property
    def node_count(self):
        """Number of operator nodes in the whole-network graph."""
        return len(self.graph)


class NetworkGraphBuilder:
    """Declarative builder networks describe their topology against.

    Each method appends IR nodes and returns node ids; the per-module
    subgraph is inlined in *original* order — the strategy rewrite is a
    pass over the finished network graph, exactly as it is for module
    graphs.
    """

    def __init__(self, network):
        self.network = network
        self.graph = Graph(network.name)
        self.refs = []
        self.outputs = []

    def _ref(self, obj):
        self.refs.append(obj)
        return len(self.refs) - 1

    # -- inputs and stage plumbing ------------------------------------------

    def input(self):
        """The network input: a coords node plus lifted feature rows."""
        n = self.network.n_points
        coords = self.graph.add("coords", attrs={"rows": n, "dim": 3,
                                                 "label": "input"})
        feats = self.graph.add("lift", inputs=(coords.id,),
                               attrs={"rows": n, "dim": 3})
        return coords.id, feats.id

    def lift(self, coords):
        """Seed feature rows from a coords value (e.g. a selected subset)."""
        return self.graph.add("lift", inputs=(coords,),
                              attrs={"dim": 3}).id

    # -- module inlining -----------------------------------------------------

    def module(self, module, coords, feats):
        """Inline one module's original-order subgraph.

        Symbolic dims are bound against the module spec (network graphs
        execute at the instance's fixed scale), every node is tagged
        with its module region, and a derived ``coords`` node carries
        the stage coordinates forward.  Returns
        ``(out_coords, out_feats)`` node ids.
        """
        spec = module.spec
        index = self._ref(module)
        sub = build_module_graph(spec)
        env = shape_env(spec)
        id_map = {sub.only("input").id: feats}
        for node in sub:
            if node.kind == "input":
                continue
            attrs = {}
            for key, value in node.attrs.items():
                if isinstance(value, str) and key not in _NON_DIM_ATTRS:
                    value = resolve_dim(value, env)
                attrs[key] = value
            attrs.update(module=index, label=spec.name,
                         coords=coords, feats=feats)
            inputs = tuple(id_map[p] for p in node.inputs)
            if node.kind == "sample":
                # Sampling depends only on the stage coordinates — this
                # is what frees a module's N lane from its
                # predecessors' feature computation.
                inputs = (coords,)
            elif node.kind == "search" and spec.search_space == "coords":
                # Coordinate-space searches do not consume features at
                # all; rewiring the feature input to the coords chain is
                # what unlocks cross-module N/F overlap.
                inputs = (coords, inputs[1])
            new = self.graph.add(node.kind, inputs, attrs, node.phase,
                                 node.parallelizable)
            id_map[node.id] = new.id
        out_coords = self.graph.add(
            "coords",
            inputs=(coords, id_map[sub.only("sample").id]),
            attrs={"rows": env["n_out"], "dim": 3, "label": spec.name,
                   "stage": index},
        )
        return out_coords.id, id_map[sub.outputs[0]]

    def encoder(self, modules, coords, feats):
        """Inline an encoder stack; returns every (coords, feats) level."""
        levels = [(coords, feats)]
        for module in modules:
            coords, feats = self.module(module, coords, feats)
            levels.append((coords, feats))
        return levels

    # -- network-level operators --------------------------------------------

    def concat(self, parts, rows, dim, label, traced=True):
        """Feature concatenation (skip/link/dense glue)."""
        return self.graph.add(
            "concat", inputs=tuple(parts),
            attrs={"rows": rows, "dim": dim, "axis": 1, "label": label,
                   "traced": traced},
            phase="O",
        ).id

    def head(self, head, feats, rows, label="head"):
        """An MLP head / embedding over flat feature rows.

        ``head`` is any callable module with a ``dims`` width list
        (:class:`~repro.networks.base.FCHead`,
        :class:`~repro.neural.SharedMLP`); ``rows`` the per-cloud row
        count the trace reports.
        """
        return self.graph.add(
            "head", inputs=(feats,),
            attrs={"ref": self._ref(head), "rows": rows,
                   "dims": tuple(head.dims), "label": label},
            phase="F",
        ).id

    def propagate(self, fp, fine_coords, fine_feats, coarse_coords,
                  coarse_feats):
        """One feature-propagation (decoder/upsampling) step."""
        return self.graph.add(
            "propagate",
            inputs=(fine_coords, fine_feats, coarse_coords, coarse_feats),
            attrs={"ref": self._ref(fp), "label": fp.name,
                   "n_points": fp.n_points, "k": fp.K,
                   "dims": tuple(fp.mlp.dims)},
            phase="F",
        ).id

    def global_max(self, feats, k, dim, label):
        """Per-cloud global max over ``k`` flat rows of width ``dim``."""
        return self.graph.add(
            "global_max", inputs=(feats,),
            attrs={"k": k, "dim": dim, "label": label},
            phase="F",
        ).id

    def broadcast(self, pooled, rows):
        """Repeat each cloud's pooled row to its ``rows`` points."""
        return self.graph.add(
            "broadcast", inputs=(pooled,), attrs={"rows": rows},
            phase="O",
        ).id

    def select(self, coords, scores, n_select):
        """Per-cloud top-``n_select`` points by score, mean-centered."""
        return self.graph.add(
            "select", inputs=(coords, scores),
            attrs={"n_select": n_select}, phase="O",
        ).id

    def output(self, node, name=None, per_point=False):
        """Declare one network output."""
        self.outputs.append(NetworkOutput(node, name, per_point))
        return node


def _collect_regions(graph):
    """Per-module splice metadata from the final (rewritten) graph."""
    per, order = {}, []
    for node in graph:
        index = node.attrs.get("module")
        if index is None:
            continue
        if index not in per:
            order.append(index)
        per.setdefault(index, []).append(node)
    regions = []
    for index in order:
        nodes = per[index]
        sample = next(n for n in nodes if n.kind == "sample")
        regions.append(NetworkRegion(
            index, sample.attrs["coords"], sample.attrs["feats"],
            sample.id, nodes[-1].id,
        ))
    return tuple(regions)


def build_network_graph(network, strategy="delayed"):
    """Lower ``network`` to one strategy-rewritten :class:`NetworkGraph`.

    The network's declarative builder emits the original-order program;
    the standard pass pipeline then rewrites every module region,
    fuses aggregation, and dead-code-eliminates network-wide.
    """
    builder = NetworkGraphBuilder(network)
    network._build_graph(builder)
    if not builder.outputs:
        raise ValueError(f"{network.name}: network declared no outputs")
    graph = builder.graph
    graph.outputs = tuple(out.node for out in builder.outputs)
    graph.validate()
    graph = run_pipeline(graph, strategy)
    # Rewrites may move a region's output node (delayed aggregation
    # ends on the subtract, not the reduce); the pipeline rewired
    # graph.outputs, so re-anchor the named outputs on it.
    outputs = tuple(
        replace(out, node=node)
        for out, node in zip(builder.outputs, graph.outputs)
    )
    return NetworkGraph(network.name, strategy, graph, tuple(builder.refs),
                        outputs, _collect_regions(graph))
