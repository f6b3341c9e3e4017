"""Network execution plans: the plan/execute split the engine serves.

A plan is the per-module sequence of strategy-rewritten graphs a
network will execute.  The :class:`~repro.engine.runner.BatchRunner`
compiles one up front and executes it batch after batch; scaling work
(sharding, multi-backend executors) schedules plan entries rather than
re-deriving strategies per request.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import format_graph, shape_env
from .passes import module_graph

__all__ = [
    "ModulePlan",
    "NetworkPlan",
    "ValueLiveness",
    "compile_network_plan",
    "value_liveness",
]


@dataclass(frozen=True)
class ValueLiveness:
    """Liveness of one graph value over the topological node order.

    Positions index ``graph.nodes`` — the list order *is* the schedule,
    so ``def_index`` is where the value is produced and
    ``last_use_index`` the last position that reads it
    (``len(graph.nodes)`` for graph outputs, which outlive every node).
    """

    node: int
    kind: str
    def_index: int
    last_use_index: int
    consumers: tuple


def value_liveness(graph):
    """Per-value liveness over ``graph``'s topological schedule.

    Returns ``{node_id: ValueLiveness}``.  This is pure graph metadata
    — the kernel runtime's arena planner
    (:mod:`repro.backend.memplan`) maps these node positions onto its
    fused-kernel positions, and sharding/placement can read working-set
    extents straight off the plan.
    """
    positions = {node.id: index for index, node in enumerate(graph.nodes)}
    consumers = {node.id: [] for node in graph.nodes}
    for node in graph.nodes:
        for parent in set(node.inputs):
            consumers[parent].append(node)
    outputs = set(graph.outputs)
    values = {}
    for node in graph.nodes:
        used_by = consumers[node.id]
        if node.id in outputs:
            last = len(graph.nodes)
        elif used_by:
            last = max(positions[c.id] for c in used_by)
        else:
            last = positions[node.id]
        values[node.id] = ValueLiveness(
            node=node.id,
            kind=node.kind,
            def_index=positions[node.id],
            last_use_index=last,
            consumers=tuple(c.id for c in used_by),
        )
    return values


@dataclass(frozen=True)
class ModulePlan:
    """One module's compiled graph plus its spec."""

    name: str
    spec: object
    graph: object

    @property
    def node_count(self):
        """Number of operator nodes in this module's graph."""
        return len(self.graph)


@dataclass(frozen=True)
class NetworkPlan:
    """Ordered module plans for one network under one strategy.

    ``graph`` is the whole-network :class:`~repro.graph.network.NetworkGraph`
    the executors actually run — one program spanning every module plus
    heads, decoders and skip glue; the per-module ``entries`` remain the
    sharding/placement metadata (per-module working sets).
    """

    network: str
    strategy: str
    entries: tuple
    graph: object = None
    #: Resolved :class:`~repro.backend.ArrayBackend` when the plan was
    #: compiled for the kernel runtime, else ``None`` (autograd
    #: executors).
    backend: object = None

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def node_count(self):
        """Total operator nodes across every module of the plan."""
        return sum(entry.node_count for entry in self.entries)

    def liveness(self):
        """Value liveness over the whole-network graph's schedule.

        Requires the plan to have been compiled from a live network
        (``graph`` present); the memory planner and placement logic
        consume this instead of re-deriving consumer sets.
        """
        if self.graph is None:
            raise ValueError(
                "plan has no whole-network graph; compile it from a "
                "live network to get liveness metadata"
            )
        return value_liveness(self.graph.graph)

    def describe(self):
        """Human-readable dump used by ``repro trace --graph``.

        Prints the whole-network graph when compiled from a live
        network, otherwise the per-module graphs.
        """
        lines = [
            f"plan {self.network} [{self.strategy}]: "
            f"{len(self.entries)} modules, {self.node_count} module nodes"
        ]
        if self.backend is not None:
            lines.append(
                f"kernel backend: {self.backend.name} "
                f"(search dtype {self.backend.search_dtype})"
            )
        if self.graph is not None:
            lines.append(
                f"network graph: {self.graph.node_count} nodes, "
                f"{len(self.graph.regions)} module regions"
            )
            lines.append(format_graph(self.graph.graph))
        else:
            for entry in self.entries:
                lines.append(
                    format_graph(entry.graph, env=shape_env(entry.spec))
                )
        return "\n".join(lines)


def compile_network_plan(network, strategy="delayed", backend=None):
    """Compile ``network``: the whole-network graph plus module metadata.

    The network graph is memoized per (instance, strategy) and the
    module graphs per (spec, strategy), so repeated compilation is
    free; the plan object itself is cheap metadata.  ``backend``
    optionally records the kernel backend (name, dtype or
    :class:`~repro.backend.ArrayBackend`) the plan will execute under —
    the engine's runners pass theirs through so placement and
    introspection see the same configuration that runs.
    """
    modules = list(network.encoder) + list(getattr(network, "box_encoder", []))
    entries = tuple(
        ModulePlan(m.spec.name, m.spec, module_graph(m.spec, strategy))
        for m in modules
    )
    graph = None
    if hasattr(network, "network_graph"):
        graph = network.network_graph(strategy)
    if backend is not None:
        from ..backend import get_backend

        backend = get_backend(backend)
    return NetworkPlan(network.name, strategy, entries, graph, backend)
