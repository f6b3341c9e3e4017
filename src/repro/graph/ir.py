"""The operator-graph IR.

A :class:`Graph` is an ordered list of :class:`Node` records — the
profiling traces' operator taxonomy (Sample / NeighborSearch / MatMul /
ReduceMax / Concat), except that aggregation is one ``aggregate`` node
(gather [+ max-reduce] + subtract, the Aggregation Unit's one
NIT-driven pass) that the trace lowering expands into its Gather /
ReduceMax / Subtract records.  Node attributes hold the per-cloud sizes
as plain ints: a graph is built for one network instance at its fixed
scale, and a cloud stack's height is the only size bound at run time.

The node list order is both the topological order and the emission
order: executors evaluate nodes front to back, and the trace lowering
appends operator records in the same sequence, which is what guarantees
trace/execution consistency by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "KINDS",
    "Graph",
    "Node",
    "format_graph",
]

#: Node kinds understood by the executors and the trace lowering.
KINDS = (
    "sample",      # centroid sampling (O phase)
    "search",      # neighbor search (N phase); a module-less one is a
                   # decoder's coordinate kNN, handing on its distances
    "matmul",      # one MLP layer, of a module region or a head (F phase)
    "reduce_max",  # post-MLP neighborhood max-reduction (F phase)
    "aggregate",   # NIT-driven gather [+ max-reduce] + subtract (A phase)
    "epilogue",    # limited-variant bias + activation replay (no trace op)
    "concat",      # feature concatenation (O phase)
    # Network-level kinds (repro.graph.network): decoders and skip glue
    # are IR nodes too; a decoder level is
    # search -> interpolate -> concat -> matmul chain.
    "coords",      # stage coordinates: network input or prev[centroids]
    "lift",        # seed feature rows from a coords value (no trace op)
    "interpolate", # inverse-distance weighted sum of coarse rows (O phase)
    "global_max",  # per-cloud global max-pool over flat rows (F phase)
    "broadcast",   # repeat each cloud's pooled row per point (no trace op)
    "select",      # per-cloud top-score point selection (no trace op)
)


@dataclass(frozen=True)
class Node:
    """One operator in the graph.

    ``inputs`` are node ids; ``attrs`` hold the shape parameters as
    ints, plus labels and region tags.  ``parallelizable`` is the one
    description of N/F overlap: the strategy passes set it on the
    search and the hoisted products that no longer depend on each
    other, and the hardware models overlap exactly the flagged ops.
    """

    id: int
    kind: str
    inputs: tuple = ()
    attrs: dict = field(default_factory=dict)
    phase: str = "O"
    parallelizable: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "attrs", dict(self.attrs))

    def with_attrs(self, **updates):
        """A copy of this node with ``updates`` merged into its attrs."""
        attrs = dict(self.attrs)
        attrs.update(updates)
        return replace(self, attrs=attrs)


class Graph:
    """An ordered operator graph with single-assignment node ids."""

    def __init__(self, name="graph"):
        self.name = name
        self.nodes = []
        self.outputs = ()
        self._next_id = 0

    def add(self, kind, inputs=(), attrs=None, phase="O", parallelizable=False):
        """Append a new node (auto-assigned id) and return it."""
        node = Node(self._next_id, kind, tuple(inputs), attrs or {}, phase,
                    parallelizable)
        self._next_id += 1
        self.nodes.append(node)
        return node

    def node(self, node_id):
        """Look up one node by id."""
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(f"no node with id {node_id}")

    def find(self, kind):
        """All nodes of one kind, in graph order."""
        return [n for n in self.nodes if n.kind == kind]

    def only(self, kind):
        """The unique node of one kind (raises unless exactly one)."""
        found = self.find(kind)
        if len(found) != 1:
            raise ValueError(f"expected exactly one {kind!r} node, got {len(found)}")
        return found[0]

    def consumers(self, node_id):
        """All nodes that take ``node_id`` as an input, in graph order."""
        return [n for n in self.nodes if node_id in n.inputs]

    def replace_nodes(self, nodes, outputs=None):
        """Install a rewritten node list (and optionally new outputs)."""
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids after rewrite")
        self.nodes = list(nodes)
        if outputs is not None:
            self.outputs = tuple(outputs)
        self._next_id = max(ids, default=-1) + 1
        return self

    def copy(self):
        """A shallow copy sharing the (immutable) node records."""
        clone = Graph(self.name)
        clone.nodes = list(self.nodes)
        clone.outputs = tuple(self.outputs)
        clone._next_id = self._next_id
        return clone

    def validate(self):
        """Check topological order and output/input references."""
        seen = set()
        for node in self.nodes:
            for parent in node.inputs:
                if parent not in seen:
                    raise ValueError(
                        f"node {node.id} ({node.kind}) consumes {parent} "
                        "before it is produced"
                    )
            seen.add(node.id)
        for out in self.outputs:
            if out not in seen:
                raise ValueError(f"output {out} is not produced by any node")
        return self

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def format_graph(graph):
    """Human-readable dump used by ``repro trace --graph``."""
    lines = [f"graph {graph.name}: {len(graph)} nodes, outputs={list(graph.outputs)}"]
    for node in graph:
        attrs = [f"{key}={value}" for key, value in node.attrs.items()]
        deps = ",".join(str(i) for i in node.inputs)
        flag = " ||" if node.parallelizable else ""
        lines.append(
            f"  %{node.id:<3d} [{node.phase}] {node.kind:<10s} "
            f"({deps:<8s}) {' '.join(attrs)}{flag}"
        )
    return "\n".join(lines)

