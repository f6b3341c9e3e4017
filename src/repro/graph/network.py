"""Network graphs: the one graph form, spanning modules, heads and glue.

The paper's delayed-aggregation story is a *network-level* property —
module i+1's hoisted MLP is independent of module i's aggregation drain
— so the IR has one graph form, the network graph.  A network declares
its topology once through a :class:`NetworkGraphBuilder` and lowers to
ONE :class:`~repro.graph.ir.Graph`:

* every module is a *region*: :meth:`NetworkGraphBuilder.module` emits
  its original-order nodes (sample → search → aggregate → matmuls →
  reduce_max), each tagged with its region, ``attrs["module"]``, so
  the strategy rewrites apply region-wise.  Every value a node reads
  is one of its input edges — the aggregate reads the feature table,
  the search's Neighbor Index Table and the sample's centroid ids — so
  the rewrites, the executors and the arena planner's liveness follow
  one dataflow;
* an MLP outside a module — a head or an embedding — is a chain of
  ``matmul`` nodes, one per Linear, exactly like a region's MLP, but
  untagged, so no strategy rewrite touches it.  Every MLP layer node
  carries ``attrs["ref"]``, the index of its
  :class:`~repro.neural.SharedMLP` in :attr:`NetworkGraph.refs`: a
  node runs from its input edges, its attrs and, for an MLP layer,
  ``refs[attrs["ref"]]`` — nothing else.  Skip concats, global pooling
  and stage coordinates are first-class IR nodes too (``concat`` /
  ``global_max`` / ``coords`` / ``lift`` / ``select``), and a
  feature-propagation step is a coordinate ``search``, an
  ``interpolate``, a ``concat`` and the FP MLP's ``matmul`` chain;
* the standard pass pipeline (:data:`repro.graph.passes.PIPELINES`)
  then runs over the *full* graph — delayed/limited rewrite every
  module region and DCE drops genuinely dead skip branches and unused
  head inputs network-wide.

Because coordinates flow through explicit ``coords`` nodes (derived
from sampling, never from features), a downstream module's
sample→search chain depends only on the *sampling* chain of its
predecessors.

:class:`~repro.graph.executors.GraphExecutor` interprets these graphs;
:class:`NetworkRegion` records where each module sits, so a per-module
reference can be checked against every region of a network run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ir import Graph
from .passes import run_pipeline

__all__ = [
    "INTERPOLATE_K",
    "NetworkGraph",
    "NetworkGraphBuilder",
    "NetworkOutput",
    "NetworkRegion",
    "build_network_graph",
    "feature_width",
]


#: Coarse neighbors a feature-propagation step interpolates from (the
#: ``three_interpolate`` kernel the paper's baseline optimizes).
INTERPOLATE_K = 3


def _search_signature(spec):
    """Stable identity of a module's neighbor search node.

    Together with the content digest of the searched point table this
    fully determines the search's queries (centroid sampling is a
    deterministic function of n_in and n_out), so the engine's
    neighbor-index cache can key on (points digest, signature) and skip
    digesting the derived query array.
    """
    return (
        f"{spec.name}:{spec.search_space}:k={spec.k}:n_out={spec.n_out}"
    )


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
    """Where one module region lives in the network graph.

    ``coords`` is the node feeding the region's ``sample``, ``feats``
    the region's other input from outside itself, ``sample`` and
    ``search`` its centroid-sampling and neighbor-search nodes and
    ``output`` its last node — everything needed to compare the region
    against a per-module reference run on the same inputs.  Where
    dead-code elimination kept only a region's sampling chain,
    ``feats`` and ``search`` are ``None``.
    """

    module: int
    coords: int
    feats: int
    sample: int
    search: int
    output: int


@dataclass(frozen=True)
class NetworkGraph:
    """A whole network lowered to one strategy-rewritten graph.

    ``refs`` holds the :class:`~repro.neural.SharedMLP` every MLP
    layer node runs a layer of, by ``attrs["ref"]``; ``outputs`` the
    named output spec; ``regions`` the per-module splice points.
    """

    network: str
    strategy: str
    graph: Graph
    refs: tuple
    outputs: tuple
    regions: tuple

    def __len__(self):
        return len(self.graph)

    @property
    def node_count(self):
        """Number of operator nodes in the whole-network graph."""
        return len(self.graph)

    def segment(self, node):
        """The layer a ``matmul`` / ``epilogue`` node runs, as
        ``(linear, relu)``: layer ``attrs["layer"]`` of the MLP
        ``refs[attrs["ref"]]``."""
        mlp, layer = self.refs[node.attrs["ref"]], node.attrs["layer"]
        if len(mlp.relu) != len(mlp.layers):
            raise ValueError(f"an MLP of {len(mlp.layers)} layers has "
                             f"{len(mlp.relu)} relu flags")
        return mlp.layers[layer], mlp.relu[layer]


def feature_width(node):
    """The feature width of the rows ``node`` produces."""
    attrs = node.attrs
    return attrs.get("out_dim", attrs.get("feature_dim", attrs.get("dim")))


class NetworkGraphBuilder:
    """Declarative builder networks describe their topology against.

    Each method appends IR nodes and returns node ids; a module region
    is emitted in *original* order — the strategy rewrite is a pass
    over the finished network graph.
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
        """The network input: a coords node plus feature rows lifted
        from it."""
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

    # -- module regions ------------------------------------------------------

    def module(self, module, coords, feats):
        """Emit one module as an original-order region.

        ``F(A(N(p), p))`` is written here once; the ``delayed`` and
        ``limited`` orderings are rewrites of it
        (:mod:`repro.graph.passes`).  Aggregation is one ``aggregate``
        node from the start — the NIT-driven gather and the centroid
        subtraction (and, once delayed, the max-reduce between them) are
        one pass, the granularity the paper's Aggregation Unit consumes
        (§V-B).  Its attrs name each size once — ``n_centroids``, ``k``,
        ``table_rows`` and the feature width ``dim``.  Every node is
        tagged with its region, and a derived ``coords`` node carries
        the stage coordinates forward; each ``matmul`` carries the
        module's MLP as its ``ref``.  Returns ``(out_coords, out_feats)``
        node ids.
        """
        spec = module.spec
        index = self._ref(module.mlp)
        n_in, n_out, k, dims = spec.n_in, spec.n_out, spec.k, spec.mlp_dims
        region = {"module": index, "label": spec.name}

        def add(kind, inputs, phase, **attrs):
            return self.graph.add(kind, inputs, {**attrs, **region}, phase).id

        # Sampling depends only on the stage coordinates — this is what
        # frees a module's N lane from its predecessors' feature
        # computation.  Coordinate-space searches do not consume
        # features at all: their input is the coords chain.
        sample = add("sample", (coords,), "O", n_points=n_in,
                     n_samples=n_out)
        space = coords if spec.search_space == "coords" else feats
        search = add("search", (space, sample), "N", n_queries=n_out,
                     n_points=n_in, k=k, dim=spec.search_dim,
                     space=spec.search_space,
                     signature=_search_signature(spec))
        out = add("aggregate", (feats, search, sample), "A",
                  n_centroids=n_out, k=k, table_rows=n_in, reduce=False,
                  dim=dims[0])
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            out = add("matmul", (out,), "F", ref=index, layer=i,
                      rows=n_out * k, in_dim=a, out_dim=b)
        out = add("reduce_max", (out,), "F", n_centroids=n_out, k=k,
                  feature_dim=dims[-1])
        out_coords = self.graph.add(
            "coords",
            inputs=(coords, sample),
            attrs={"rows": n_out, "dim": 3, "label": spec.name,
                   "stage": index},
        )
        return out_coords.id, out

    def encoder(self, modules, coords, feats):
        """Emit an encoder stack; returns every (coords, feats) level."""
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

        ``head`` is a :class:`~repro.neural.SharedMLP`; ``rows`` the
        per-cloud row count the trace reports.  Emits one ``matmul``
        node per layer — the Linear and its ReLU, if any — as a
        region's matmuls do.  Returns the last node's id.
        """
        ref, out = self._ref(head), feats
        for i, (a, b) in enumerate(zip(head.dims[:-1], head.dims[1:])):
            out = self.graph.add(
                "matmul", inputs=(out,),
                attrs={"ref": ref, "layer": i, "rows": rows, "in_dim": a,
                       "out_dim": b, "label": label},
                phase="F",
            ).id
        return out

    def propagate(self, mlp, label, fine_coords, fine_feats, coarse_coords,
                  coarse_feats):
        """One PointNet++ feature-propagation (decoder/upsampling) step.

        A coordinate-space ``search`` of each fine point's
        :data:`INTERPOLATE_K` nearest coarse points (fewer when the
        coarse level has fewer), with their distances; ``interpolate``,
        the inverse-distance weighted sum of the coarse features; the
        skip ``concat``; and the unit MLP ``mlp`` (a
        :class:`~repro.neural.SharedMLP`) as a :meth:`head`.  The search
        and the concat are untraced, so the lowered trace is the
        ``three_interpolate`` kernel — over the k it searches and the
        coarse width it gathers — plus the MLP's matmuls, all under
        ``label``.  No strategy rewrites them.
        """
        n_fine = self.graph.node(fine_coords).attrs["rows"]
        n_coarse = self.graph.node(coarse_coords).attrs["rows"]
        coarse_width = feature_width(self.graph.node(coarse_feats))
        k = min(INTERPOLATE_K, n_coarse)
        search = self.graph.add(
            "search", inputs=(coarse_coords, fine_coords),
            attrs={"n_queries": n_fine, "n_points": n_coarse,
                   "k": k, "dim": 3, "label": label, "traced": False},
            phase="N",
        )
        interpolated = self.graph.add(
            "interpolate", inputs=(search.id, coarse_feats),
            attrs={"n_points": n_fine, "k": k,
                   "feature_dim": coarse_width, "label": label},
            phase="O",
        )
        joined = self.concat((fine_feats, interpolated.id), rows=n_fine,
                             dim=mlp.dims[0], label=label, traced=False)
        return self.head(mlp, joined, rows=n_fine, label=label)

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
    per = {}
    for node in graph:
        index = node.attrs.get("module")
        if index is not None:
            per.setdefault(index, []).append(node)
    regions = []
    for index, nodes in per.items():
        sample = next(n for n in nodes if n.kind == "sample")
        coords = sample.inputs[0]
        inside = {n.id for n in nodes} | {coords}
        feats = next((p for n in nodes for p in n.inputs
                      if p not in inside), None)
        search = next((n.id for n in nodes if n.kind == "search"), None)
        regions.append(NetworkRegion(index, coords, feats, sample.id,
                                     search, nodes[-1].id))
    return tuple(regions)


def build_network_graph(network, strategy="delayed"):
    """Lower ``network`` to one strategy-rewritten :class:`NetworkGraph`.

    The network's declarative builder emits the original-order program;
    the standard pass pipeline then rewrites every module region and
    dead-code-eliminates network-wide.
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
    # ends on the aggregate, not the reduce); the pipeline rewired
    # graph.outputs, so re-anchor the named outputs on it.
    outputs = tuple(
        replace(out, node=node)
        for out, node in zip(builder.outputs, graph.outputs)
    )
    return NetworkGraph(network.name, strategy, graph, tuple(builder.refs),
                        outputs, _collect_regions(graph))
