"""The operator-graph IR.

A :class:`Graph` is an ordered list of :class:`Node` records — the same
operator taxonomy the profiling traces use (Sample / NeighborSearch /
Gather / Subtract / MatMul / ReduceMax / Concat) plus the fused
aggregation node the rewrite passes introduce.  Node attributes hold
*symbolic* dimensions ("n_in", "n_out", "k", products like "n_out*k")
so one graph serves every input scale and batch size; executors and the
trace lowering bind them against a concrete :class:`ShapeEnv` at run
time.

The node list order is both the topological order and the emission
order: executors evaluate nodes front to back, and the trace lowering
appends operator records in the same sequence, which is what guarantees
trace/execution consistency by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "KINDS",
    "Frontier",
    "Graph",
    "Node",
    "format_graph",
    "resolve_dim",
    "shape_env",
]

#: Node kinds understood by the executors and the trace lowering.
KINDS = (
    "input",       # graph input (the module's per-point feature table)
    "sample",      # centroid sampling (O phase)
    "search",      # neighbor search (N phase)
    "gather",      # NIT-driven row gather (A phase)
    "subtract",    # centroid subtraction, pre- or post-reduction (A phase)
    "matmul",      # one shared-MLP layer (F phase)
    "reduce_max",  # neighborhood max-reduction (A or F phase)
    "aggregate",   # fused gather[+reduce_max]+subtract (A phase)
    "epilogue",    # limited-variant bias + activation replay (no trace op)
    "concat",      # feature concatenation (O phase)
    # Network-level kinds (repro.graph.network): whole networks lower
    # to one graph, so heads, decoders and skip glue are IR nodes too.
    "coords",      # stage coordinates: network input or prev[centroids]
    "lift",        # seed feature rows from a coords value (no trace op)
    "head",        # an MLP head / embedding applied to flat rows (F phase)
    "propagate",   # feature propagation / upsampling (decoder, O+F phase)
    "global_max",  # per-cloud global max-pool over flat rows (F phase)
    "broadcast",   # repeat each cloud's pooled row per point (no trace op)
    "select",      # per-cloud top-score point selection (no trace op)
)


@dataclass(frozen=True)
class Node:
    """One operator in the graph.

    ``inputs`` are node ids; ``attrs`` hold the shape parameters, either
    literal ints (MLP widths are static per spec) or symbolic dims
    resolved by :func:`resolve_dim`.
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


def resolve_dim(value, env):
    """Bind a symbolic dim against ``env``.

    ``value`` may be an int (returned as-is), a symbol name present in
    ``env``, or a ``*``-product of symbols/ints ("n_out*k").
    """
    if isinstance(value, (int,)):
        return int(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot resolve dim {value!r}")
    out = 1
    for factor in value.split("*"):
        factor = factor.strip()
        if factor.isdigit():
            out *= int(factor)
        elif factor in env:
            out *= int(env[factor])
        else:
            raise KeyError(f"unbound symbolic dim {factor!r} (env has {sorted(env)})")
    return out


def shape_env(spec, n_in=None):
    """The standard binding for a module graph.

    When executed or traced at a different input scale than the spec
    (KITTI frames vary per sweep), ``n_out`` clamps to ``n_in`` the same
    way module execution does.
    """
    n_in = spec.n_in if n_in is None else int(n_in)
    n_out = spec.n_out if n_in == spec.n_in else min(spec.n_out, n_in)
    return {"n_in": n_in, "n_out": n_out, "k": spec.k}


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

    def frontier(self):
        """A fresh :class:`Frontier` over this graph's dependency edges."""
        return Frontier(self)

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


class Frontier:
    """Ready-set view of a graph's dependency edges.

    Drives dependency-ordered (rather than list-ordered) execution: a
    node becomes *ready* once every input has completed, :meth:`take`
    claims the currently-ready nodes, and :meth:`complete` retires a
    claimed node, unlocking its consumers.  The async scheduler
    (:mod:`repro.engine.scheduler`) walks module graphs through this API
    so independent nodes — the neighbor-search chain and the hoisted
    MLP chain of a delayed-aggregation graph — can run concurrently.

    The frontier itself is not synchronized: drive it from a single
    scheduler thread and report worker completions back on that thread.
    """

    def __init__(self, graph):
        self._nodes = {node.id: node for node in graph}
        self._consumers = {node.id: [] for node in graph}
        self._waiting = {}
        for node in graph:
            deps = set(node.inputs)
            self._waiting[node.id] = deps
            for parent in deps:
                self._consumers[parent].append(node.id)
        self._ready = [node.id for node in graph if not self._waiting[node.id]]
        self._issued = set()
        self._done = set()

    def __len__(self):
        """Nodes not yet completed."""
        return len(self._nodes) - len(self._done)

    @property
    def done(self):
        """True once every node has completed."""
        return len(self._done) == len(self._nodes)

    def ready(self):
        """The ready, not-yet-claimed nodes, in graph order."""
        return tuple(self._nodes[i] for i in self._ready)

    def take(self):
        """Claim and return every currently-ready node.

        Claimed nodes are the caller's to execute; they re-enter the
        frontier only through :meth:`complete`.
        """
        taken = [self._nodes[i] for i in self._ready]
        self._issued.update(self._ready)
        self._ready = []
        return taken

    def complete(self, node_id):
        """Retire a claimed node; returns the nodes it made ready."""
        if node_id not in self._issued:
            raise ValueError(f"node {node_id} was never taken from the frontier")
        if node_id in self._done:
            raise ValueError(f"node {node_id} completed twice")
        self._done.add(node_id)
        unlocked = []
        for consumer in self._consumers[node_id]:
            waiting = self._waiting[consumer]
            waiting.discard(node_id)
            if not waiting and consumer not in self._issued:
                self._ready.append(consumer)
                unlocked.append(self._nodes[consumer])
        return tuple(unlocked)


def format_graph(graph, env=None):
    """Human-readable dump used by ``repro trace --graph``."""
    lines = [f"graph {graph.name}: {len(graph)} nodes, outputs={list(graph.outputs)}"]
    for node in graph:
        attrs = []
        for key, value in node.attrs.items():
            if env is not None and isinstance(value, str) and key != "space" \
                    and key != "signature" and key != "mode":
                try:
                    value = f"{value}={resolve_dim(value, env)}"
                except (KeyError, TypeError):
                    pass
            attrs.append(f"{key}={value}")
        deps = ",".join(str(i) for i in node.inputs)
        flag = " ||" if node.parallelizable else ""
        lines.append(
            f"  %{node.id:<3d} [{node.phase}] {node.kind:<10s} "
            f"({deps:<8s}) {' '.join(attrs)}{flag}"
        )
    return "\n".join(lines)
