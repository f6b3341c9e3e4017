"""Operator-graph IR: one program, many consumers.

The paper's delayed aggregation is a *program transform* — reorder the
N/A/F operator stream and both the software speedup and the hardware
co-design follow.  This package encodes that transform once: a module
builds its operator graph in ``original`` form
(:func:`~repro.graph.build.build_module_graph`), the ``delayed`` and
``limited`` strategies are graph-rewrite passes
(:mod:`~repro.graph.passes`), and the rewritten graph feeds every
consumer — eager and batched executors
(:mod:`~repro.graph.executors`), the profiling trace lowering
(:mod:`~repro.graph.lower`), the engine's execution plans
(:mod:`~repro.graph.plan`), and the N/F-overlap schedule lowering
(:mod:`~repro.graph.schedule`) the async scheduler executes.
"""

from .build import build_module_graph, search_signature
from .executors import BatchedExecutor, EagerExecutor, ExecutionResult, OpRecorder
from .ir import KINDS, Frontier, Graph, Node, format_graph, resolve_dim, shape_env
from .lower import lower_graph, lower_module_trace, lower_network_trace
from .network import (
    NetworkBatchedExecutor,
    NetworkEagerExecutor,
    NetworkGraph,
    NetworkGraphBuilder,
    NetworkOutput,
    NetworkRegion,
    build_network_graph,
)
from .passes import (
    PIPELINES,
    dead_code_elimination,
    delay_aggregation,
    fuse_aggregation,
    limit_delay,
    module_graph,
    run_pipeline,
)
from .plan import (
    ModulePlan,
    NetworkPlan,
    ValueLiveness,
    compile_network_plan,
    value_liveness,
)
from .schedule import GraphSchedule, ScheduledNode, node_lane, schedule_graph

__all__ = [
    "KINDS",
    "Frontier",
    "Graph",
    "GraphSchedule",
    "Node",
    "PIPELINES",
    "ScheduledNode",
    "BatchedExecutor",
    "EagerExecutor",
    "ExecutionResult",
    "ModulePlan",
    "NetworkBatchedExecutor",
    "NetworkEagerExecutor",
    "NetworkGraph",
    "NetworkGraphBuilder",
    "NetworkOutput",
    "NetworkPlan",
    "NetworkRegion",
    "OpRecorder",
    "ValueLiveness",
    "build_module_graph",
    "build_network_graph",
    "compile_network_plan",
    "dead_code_elimination",
    "delay_aggregation",
    "format_graph",
    "fuse_aggregation",
    "limit_delay",
    "lower_graph",
    "lower_module_trace",
    "lower_network_trace",
    "module_graph",
    "node_lane",
    "resolve_dim",
    "run_pipeline",
    "schedule_graph",
    "search_signature",
    "shape_env",
    "value_liveness",
]
